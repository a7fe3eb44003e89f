package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strconv"
	"testing"
)

// TestMirrorsRaalserveDefaults reads cmd/raalserve's flag declarations
// and fails when a default the benchmark mirrors has drifted.
func TestMirrorsRaalserveDefaults(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "../cmd/raalserve/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defaults := map[string]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 3 {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || types.ExprString(sel.X) != "flag" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, _ := strconv.Unquote(lit.Value)
			defaults[name] = types.ExprString(call.Args[1])
		}
		return true
	})
	want := map[string]string{
		"bench":          `"imdb"`,
		"scale":          strconv.FormatFloat(serveScale, 'g', -1, 64),
		"seed":           strconv.Itoa(serveSeed),
		"encode-cache":   strconv.Itoa(serveEncodeCache),
		"queue":          strconv.Itoa(serveQueue),
		"deadline":       "500 * time.Millisecond",
		"max-candidates": strconv.Itoa(serveCandidates),
		"concurrency":    "0",
		"on-deadline":    `"fallback"`,
		"precision":      `"f64"`,
		"batch-window":   "0",
		"batch-max":      "0",
		"hedge-after":    "0",
		"online":         "false",
		"log-level":      `"info"`,
		"fault-panic":    "0",
		"fault-error":    "0",
		"fault-delay":    "0",
	}
	if serveDeadline.String() != "500ms" {
		t.Errorf("serveDeadline = %v, raalserve's is 500ms", serveDeadline)
	}
	for name, w := range want {
		if got, ok := defaults[name]; !ok || got != w {
			t.Errorf("raalserve -%s defaults to %s; the benchmark mirrors %s", name, got, w)
		}
	}
}
