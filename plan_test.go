package raal

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"raal/internal/workload"
)

// planDigest renders everything a caller can observe of one Plan call:
// the error, or per candidate its signature and its encode-cache
// fingerprint (which covers every field the encoder reads).
func planDigest(sys *System, query string) string {
	plans, err := sys.Plan(query)
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	for _, p := range plans {
		fmt.Fprintf(&b, "%s\x1d%s\x1c", p.Sig, PlanFingerprint(p, DefaultResources()))
	}
	return b.String()
}

// TestPlanConcurrencySafe plans the generated IMDB and TPC-H corpora
// from 8 goroutines at once against one System: every result must match
// the serial one, signature for signature and fingerprint for
// fingerprint. Under -race (make race) it also proves parse → bind →
// enumerate → cardinality estimation shares no unsynchronized state, so
// callers need no lock around System.Plan.
func TestPlanConcurrencySafe(t *testing.T) {
	for _, bench := range []Benchmark{IMDB, TPCH} {
		t.Run(string(bench), func(t *testing.T) {
			sys, err := Open(bench, 0.03, 1)
			if err != nil {
				t.Fatal(err)
			}
			var gen *workload.Generator
			if bench == TPCH {
				gen, err = workload.NewTPCHGenerator(sys.db, 1)
			} else {
				gen, err = workload.NewIMDBGenerator(sys.db, 1)
			}
			if err != nil {
				t.Fatal(err)
			}
			queries := gen.Generate(96)
			want := make([]string, len(queries))
			planned := 0
			for i, q := range queries {
				want[i] = planDigest(sys, q)
				if !strings.HasPrefix(want[i], "error: ") {
					planned++
				}
			}
			if planned < len(queries)/2 {
				t.Fatalf("only %d of %d generated queries planned", planned, len(queries))
			}
			t.Logf("%d of %d generated queries planned", planned, len(queries))

			const goroutines = 8
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for k := range queries {
						i := (k + g*len(queries)/goroutines) % len(queries)
						if got := planDigest(sys, queries[i]); got != want[i] {
							t.Errorf("goroutine %d, query %d: concurrent plan differs from the serial one\nquery: %s",
								g, i, queries[i])
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
