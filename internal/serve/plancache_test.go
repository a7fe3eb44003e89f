package serve

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"raal/internal/physical"
	"raal/internal/sparksim"
	"raal/internal/telemetry"
	"raal/internal/telemetry/promtest"
)

// countingPlanner plans any SQL into five candidates named after it,
// counting calls per SQL string; "bad sql" fails like a parse error.
type countingPlanner struct {
	mu    sync.Mutex
	calls map[string]int
}

func (c *countingPlanner) plan(sql string) ([]*physical.Plan, error) {
	c.mu.Lock()
	if c.calls == nil {
		c.calls = map[string]int{}
	}
	c.calls[sql]++
	c.mu.Unlock()
	if sql == "bad sql" {
		return nil, fmt.Errorf("sql: syntax error near %q", sql)
	}
	plans := make([]*physical.Plan, 5)
	for i := range plans {
		plans[i] = &physical.Plan{Sig: fmt.Sprintf("%s/%d", sql, i)}
	}
	return plans, nil
}

func (c *countingPlanner) count(sql string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[sql]
}

// sigCost prices a plan by its signature alone, so equal plans from
// different Plan calls get bit-equal costs.
func sigCost(_ context.Context, p *physical.Plan, _ sparksim.Resources) (float64, error) {
	var h float64
	for _, c := range p.Sig {
		h = h*1.5 + float64(c)
	}
	return math.Mod(h, 97) + 1, nil
}

func newPlanCacheHandler(t *testing.T, pl *countingPlanner) (*Handler, *httptest.Server) {
	t.Helper()
	// The queue admits every concurrent test client: a 429 is not the
	// answer under test.
	h, err := NewHandler(mustServer(t, Config{Deep: sigCost, Fallback: constEstimator(7), QueueDepth: 64}),
		HTTPConfig{Planner: pl.plan})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return h, ts
}

func rawPost(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestPlanCacheAnswersByteIdentical: the first sighting of a SQL string
// is planned and not cached, the second is planned and cached, and every
// later request is served from the cache — with response bodies byte-
// identical to the cold ones on both endpoints, "candidates" included
// (all five enumerated plans for /estimate, the three priced for
// /select).
func TestPlanCacheAnswersByteIdentical(t *testing.T) {
	pl := &countingPlanner{}
	h, ts := newPlanCacheHandler(t, pl)
	const req = `{"sql":"SELECT 1","executors":4}`

	cold := map[string]string{}
	for i := 0; i < 6; i++ {
		for _, ep := range []string{"/estimate", "/select"} {
			code, body := rawPost(t, ts.URL+ep, req)
			if code != http.StatusOK {
				t.Fatalf("%s request %d: status %d (%s)", ep, i, code, body)
			}
			if i == 0 {
				cold[ep] = body
				continue
			}
			if body != cold[ep] {
				t.Fatalf("%s request %d: cached answer %q differs from cold %q", ep, i, body, cold[ep])
			}
		}
	}
	if !strings.Contains(cold["/estimate"], `"candidates":5`) || !strings.Contains(cold["/select"], `"candidates":3`) {
		t.Fatalf("candidate counts changed: estimate %s, select %s", cold["/estimate"], cold["/select"])
	}
	if n := pl.count("SELECT 1"); n != 2 {
		t.Fatalf("planner ran %d times for one SQL string over 12 requests, want 2 (first and second sighting)", n)
	}
	if n := h.plans.Len(); n != 1 {
		t.Fatalf("plan cache holds %d entries, want 1", n)
	}
	if pl, ok := h.plans.Get("SELECT 1"); !ok || len(pl.plans) != 3 || cap(pl.plans) != 3 || pl.total != 5 {
		t.Fatalf("cached entry keeps %d plans (cap %d) of %d, want exactly the 3 candidates of 5",
			len(pl.plans), cap(pl.plans), pl.total)
	}
}

// TestPlanCacheAdmitsOnlyRepeats: a stream of distinct SQL strings —
// including one that cycles through more strings than the doorkeeper
// remembers — leaves the cache empty, while a string seen twice in
// close succession is admitted.
func TestPlanCacheAdmitsOnlyRepeats(t *testing.T) {
	pl := &countingPlanner{}
	h, ts := newPlanCacheHandler(t, pl)
	for i := 0; i < 40; i++ {
		if code, body := rawPost(t, ts.URL+"/estimate", fmt.Sprintf(`{"sql":"SELECT %d"}`, i)); code != 200 {
			t.Fatalf("status %d (%s)", code, body)
		}
	}
	if n := h.plans.Len(); n != 0 {
		t.Fatalf("all-distinct stream left %d cached entries, want 0", n)
	}

	cycle := len(h.door.seen) + 100
	for round := 0; round < 2; round++ {
		for i := 0; i < cycle; i++ {
			if _, err := h.plan(fmt.Sprintf("cycle %d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := h.plans.Len(); n != 0 {
		t.Fatalf("a %d-query cycle left %d cached entries, want 0", cycle, n)
	}

	for i := 0; i < 2; i++ {
		if _, err := h.plan("hot"); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := h.plans.Get("hot"); !ok {
		t.Fatal("a string seen twice in a row should have been admitted")
	}
}

// TestPlanCacheNeverCachesErrors: an unplannable query is re-planned and
// answered 400 on every sighting.
func TestPlanCacheNeverCachesErrors(t *testing.T) {
	pl := &countingPlanner{}
	h, ts := newPlanCacheHandler(t, pl)
	for i := 0; i < 3; i++ {
		if code, body := rawPost(t, ts.URL+"/select", `{"sql":"bad sql"}`); code != http.StatusBadRequest {
			t.Fatalf("request %d: want 400, got %d (%s)", i, code, body)
		}
	}
	if n := pl.count("bad sql"); n != 3 {
		t.Fatalf("planner ran %d times for 3 bad requests, want 3", n)
	}
	if n := h.plans.Len(); n != 0 {
		t.Fatalf("plan cache holds %d entries after only errors", n)
	}
}

// TestPlanCacheConcurrentEndpoints hammers /estimate and /select on the
// same cached SQL string from several goroutines: every answer must
// equal the serial one. Under -race it proves cached plans are shared
// read-only.
func TestPlanCacheConcurrentEndpoints(t *testing.T) {
	pl := &countingPlanner{}
	_, ts := newPlanCacheHandler(t, pl)
	const req = `{"sql":"SELECT hot"}`
	want := map[string]string{}
	for _, ep := range []string{"/estimate", "/select", "/estimate", "/select"} {
		_, want[ep] = rawPost(t, ts.URL+ep, req) // the second round caches
	}
	var wg sync.WaitGroup
	var bad atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				ep := []string{"/estimate", "/select"}[(g+i)%2]
				resp, err := http.Post(ts.URL+ep, "application/json", strings.NewReader(req))
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || string(body) != want[ep] {
					if bad.Add(1) == 1 {
						t.Errorf("%s: got %d %q (%v), want %q", ep, resp.StatusCode, body, err, want[ep])
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d concurrent answers differed from the serial ones", n)
	}
	if n := pl.count("SELECT hot"); n != 2 {
		t.Fatalf("planner ran %d times, want 2", n)
	}
}

// TestNonFinitePredictionDegrades: a deep model that answers NaN or ±Inf
// must be treated as failed — the request degrades to the fallback with
// a finite cost and the rejection is counted — instead of becoming a
// 200 with an empty body.
func TestNonFinitePredictionDegrades(t *testing.T) {
	nan := constEstimator(math.NaN())
	oneNaN := func(_ context.Context, plans []*physical.Plan, _ sparksim.Resources) ([]float64, error) {
		preds := make([]float64, len(plans))
		for i := range preds {
			preds[i] = float64(i + 1)
		}
		preds[len(preds)-1] = math.NaN()
		return preds, nil
	}
	for _, tc := range []struct {
		name, path string
		cfg        Config
	}{
		{"estimate/Deep NaN", "/estimate", Config{Deep: nan}},
		{"estimate/Deep +Inf", "/estimate", Config{Deep: constEstimator(math.Inf(1))}},
		{"select/DeepBatch one NaN", "/select", Config{Deep: constEstimator(1), DeepBatch: oneNaN}},
		{"select/Deep NaN", "/select", Config{Deep: nan}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Fallback = constEstimator(7)
			tc.cfg.Metrics = NewMetrics(telemetry.NewRegistry())
			h, err := NewHandler(mustServer(t, tc.cfg), HTTPConfig{
				Planner: stubPlanner(&physical.Plan{Sig: "a"}, &physical.Plan{Sig: "b"}, &physical.Plan{Sig: "c"}),
				Metrics: tc.cfg.Metrics,
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(h)
			defer ts.Close()
			resp, er, body := postEstimate(t, ts, tc.path, `{"sql":"SELECT 1"}`)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d (%s)", resp.StatusCode, body)
			}
			if !er.Degraded || er.Source != "fallback" || er.CostSec != 7 || !strings.Contains(er.Reason, "non-finite") {
				t.Fatalf("want a degraded finite fallback answer naming the non-finite prediction, got %q", body)
			}
			if got := promtest.Value(t, scrape(t, ts), "raal_serve_nonfinite_predictions_total", ""); got != 1 {
				t.Fatalf("raal_serve_nonfinite_predictions_total = %v, want 1", got)
			}
		})
	}
}

// TestWriteJSONUnencodableIs500: a body encoding/json refuses becomes a
// typed 500 with a JSON error, never a 200 with an empty body.
func TestWriteJSONUnencodableIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, EstimateResponse{CostSec: math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, `"error":"serve: encoding response`) {
		t.Fatalf("body %q should carry a typed error", body)
	}

	// An analytical-only server has no deep path to reject: a NaN from it
	// reaches the writer, which must refuse it the same way.
	h := newTestHandler(t, Config{Fallback: constEstimator(math.NaN())})
	ts := httptest.NewServer(h)
	defer ts.Close()
	if code, body := rawPost(t, ts.URL+"/estimate", `{"sql":"SELECT 1"}`); code != http.StatusInternalServerError || body == "" {
		t.Fatalf("want a typed 500, got %d %q", code, body)
	}
}
