package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"raal/internal/physical"
	"raal/internal/serve"
	"raal/internal/sparksim"
)

// plannerCalls wraps testPlanner with a per-SQL call counter.
type plannerCalls struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *plannerCalls) plan(sql string) ([]*physical.Plan, error) {
	c.mu.Lock()
	if c.n == nil {
		c.n = map[string]int{}
	}
	c.n[sql]++
	c.mu.Unlock()
	return testPlanner(sql)
}

func (c *plannerCalls) count(sql string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[sql]
}

func (f *fleetUnderTest) post(t *testing.T, req serve.EstimateRequest) (int, string) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(f.rs.URL+"/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Raal-Replica")
}

// TestRouterPlansOncePerRequestKey: the router plans a (SQL, resources)
// pair only the first time it sees it, and routes every repeat to the
// replica the first one went to.
func TestRouterPlansOncePerRequestKey(t *testing.T) {
	calls := &plannerCalls{}
	f := newFleet(t, 3, func(cfg *Config) { cfg.Planner = calls.plan })
	reqs := []serve.EstimateRequest{
		{SQL: "q1"}, {SQL: "q1", Executors: 4}, {SQL: "q2"}, {SQL: "q3", MemMB: 2048},
	}
	owner := map[serve.EstimateRequest]string{}
	for round := 0; round < 5; round++ {
		for _, req := range reqs {
			status, rep := f.post(t, req)
			if status != http.StatusOK {
				t.Fatalf("%+v: status %d", req, status)
			}
			if prev, ok := owner[req]; ok && prev != rep {
				t.Fatalf("%+v moved from %s to %s", req, prev, rep)
			}
			owner[req] = rep
		}
	}
	for sql, want := range map[string]int{"q1": 2, "q2": 1, "q3": 1} {
		if got := calls.count(sql); got != want {
			t.Errorf("planner ran %d times for %q, want %d (once per distinct resources)", got, sql, want)
		}
	}
	// The memo routes exactly where planning would.
	for req, rep := range owner {
		res := f.router.cfg.DefaultRes
		if req.Executors != 0 {
			res.Executors = req.Executors
		}
		if req.MemMB != 0 {
			res.ExecMemMB = req.MemMB
		}
		plans, _ := testPlanner(req.SQL)
		if want := f.router.ring.Order(hashString(f.router.cfg.Fingerprint(plans[0], res)))[0]; rep != want {
			t.Errorf("%+v routed to %s, its fingerprint's owner is %s", req, rep, want)
		}
	}
}

// TestRouterDegradesAfterMemoHit: a request whose route is memoized
// carries no plans, so the local degrade rung must plan it lazily.
func TestRouterDegradesAfterMemoHit(t *testing.T) {
	calls := &plannerCalls{}
	f := newFleet(t, 2, func(cfg *Config) {
		cfg.Planner = calls.plan
		cfg.Fallback = func(_ context.Context, p *physical.Plan, _ sparksim.Resources) (float64, error) {
			return 7.5, nil
		}
	})
	if status, _, _ := f.estimate(t, "warm"); status != http.StatusOK {
		t.Fatalf("warm-up status %d", status)
	}
	for _, r := range f.replicas {
		r.ts.Close()
	}
	status, er, _ := f.estimate(t, "warm")
	if status != http.StatusOK || !er.Degraded || er.CostSec != 7.5 || er.PlanSig != "warm" {
		t.Fatalf("memo hit with every replica down: status %d, answer %+v; want the degraded fallback for plan \"warm\"", status, er)
	}
	if n := calls.count("warm"); n != 2 {
		t.Fatalf("planner ran %d times, want 2 (the memo miss, then the degrade rung)", n)
	}
}

// TestRouterRejectsBadSQLBeforeForwarding: unplannable SQL gets its 400
// from the router without any replica being contacted, every time — a
// planner error is never memoized.
func TestRouterRejectsBadSQLBeforeForwarding(t *testing.T) {
	calls := &plannerCalls{}
	f := newFleet(t, 2, func(cfg *Config) { cfg.Planner = calls.plan })
	for i := 0; i < 3; i++ {
		if status, _ := f.post(t, serve.EstimateRequest{SQL: "bad query"}); status != http.StatusBadRequest {
			t.Fatalf("attempt %d: status %d, want 400", i, status)
		}
	}
	for _, r := range f.replicas {
		if n := r.hits.Load(); n != 0 {
			t.Fatalf("replica %s was contacted %d times for unplannable SQL", r.id, n)
		}
	}
	if n := calls.count("bad query"); n != 3 {
		t.Fatalf("planner ran %d times for 3 bad requests, want 3", n)
	}
}
