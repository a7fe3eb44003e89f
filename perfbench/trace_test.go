package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

func sp(layer string, id, parent uint64, start, end int64) span {
	return span{layer: layer, id: id, parent: parent, req: 1, start: start, end: end}
}

func TestSelfTime(t *testing.T) {
	parent := sp(layerServe, 1, 0, 0, 100)
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one nested", []span{sp(layerCore, 2, 1, 10, 40)}, 70},
		{"disjoint", []span{sp(layerCore, 2, 1, 10, 20), sp(layerCore, 3, 1, 50, 80)}, 60},
		{"overlapping counted once", []span{sp(layerCore, 2, 1, 10, 60), sp(layerBaselines, 3, 1, 40, 90)}, 20},
		{"contained in a sibling", []span{sp(layerCore, 2, 1, 10, 90), sp(layerCore, 3, 1, 20, 30)}, 20},
		{"clipped to the parent", []span{sp(layerCore, 2, 1, -50, 20), sp(layerCore, 3, 1, 90, 400)}, 70},
		{"wholly outside", []span{sp(layerCore, 2, 1, 100, 150)}, 100},
		{"unsorted", []span{sp(layerCore, 3, 1, 70, 80), sp(layerCore, 2, 1, 0, 10)}, 80},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLedgerChargesOnlyTheAnsweringReplica(t *testing.T) {
	client := sp(layerClient, 1, 0, 0, 100)
	client.replica = "r1"
	router := sp(layerFleet, 2, 1, 5, 95)
	primary := sp(layerServe, 3, 2, 10, 90) // the slow primary, cancelled
	primary.replica = "r0"
	hedge := sp(layerServe, 4, 2, 50, 85) // the hedge that answered
	hedge.replica = "r1"
	core0 := sp(layerCore, 5, 3, 20, 80)
	core1 := sp(layerCore, 6, 4, 55, 80)
	core1.samples = 1
	plan := span{layer: layerPlan, id: 7, start: 6, end: 9, replica: layerFleet}

	l := buildLedger([]span{core1, hedge, primary, core0, router, client, plan})
	if l.requests != 1 || l.violations != 0 {
		t.Fatalf("requests=%d violations=%d, want 1 and 0", l.requests, l.violations)
	}
	want := map[string]int64{layerClient: 10, layerFleet: 55, layerServe: 10, layerCore: 25}
	for layer, d := range want {
		if got := l.self[layer]; len(got) != 1 || got[0] != d {
			t.Errorf("%s self = %v, want [%d]", layer, got, d)
		}
	}
	m := l.layerMetrics()
	if m["plan.calls_per_req"] != 1 || m["core.samples_per_call"] != 0.5 {
		t.Errorf("plan.calls_per_req=%v core.samples_per_call=%v", m["plan.calls_per_req"], m["core.samples_per_call"])
	}
}

func TestLedgerCountsStageSumViolations(t *testing.T) {
	client := sp(layerClient, 1, 0, 0, 100)
	srv := sp(layerServe, 2, 1, 10, 90)
	// A forward pass outliving its handler, racing the fallback that
	// replaced it: the two leaves overlap, so the layers sum past the
	// client's latency.
	core := sp(layerCore, 3, 2, 20, 120)
	fb := sp(layerBaselines, 4, 2, 60, 80)
	l := buildLedger([]span{client, srv, core, fb})
	if l.violations != 1 || l.fallbacks != 1 {
		t.Fatalf("violations=%d fallbacks=%d, want 1 and 1", l.violations, l.fallbacks)
	}
	l = buildLedger([]span{client, srv, sp(layerCore, 3, 2, 20, 60), sp(layerBaselines, 4, 2, 60, 80)})
	if l.violations != 0 {
		t.Fatalf("nested, disjoint spans counted %d violations", l.violations)
	}
}

func TestHooksCarryTheRequestAcrossTheHop(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	var seen spanRef
	replica := httptest.NewServer(tr.handler(layerServe, "r0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr.call(r.Context(), layerCore, 3, func() { seen = refFrom(r.Context()) })
	})))
	defer replica.Close()
	hop := &http.Client{Transport: transport{base: http.DefaultTransport}}
	router := httptest.NewServer(tr.handler(layerFleet, "", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := http.NewRequestWithContext(r.Context(), http.MethodGet, replica.URL, nil)
		resp, err := hop.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	})))
	defer router.Close()

	ctx := ctxWith(42, 7)
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, router.URL, nil)
	resp, err := (&http.Client{Transport: transport{base: http.DefaultTransport}}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	spans := tr.take()
	byLayer := map[string]span{}
	for _, s := range spans {
		if s.req != 42 {
			t.Errorf("%s span carries request %d, want 42", s.layer, s.req)
		}
		byLayer[s.layer] = s
	}
	if byLayer[layerFleet].parent != 7 || byLayer[layerServe].parent != byLayer[layerFleet].id ||
		byLayer[layerCore].parent != byLayer[layerServe].id || byLayer[layerCore].samples != 3 {
		t.Errorf("broken parent chain: %+v", byLayer)
	}
	if seen.req != 42 {
		t.Errorf("replica context carries request %d, want 42", seen.req)
	}
	if refFrom(context.Background()).req != 0 {
		t.Error("empty context carries a request")
	}
}
