package main

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"raal"
	"raal/internal/physical"
	"raal/internal/serve"
	"raal/internal/sparksim"
)

// Layer names, as they appear in span records and per-layer metrics.
const (
	layerClient    = "client"
	layerFleet     = "fleet"
	layerServe     = "serve"
	layerCore      = "core"
	layerBaselines = "baselines"
	layerPlan      = "plan"
)

// Headers that carry the request ID and the caller's span across an HTTP
// hop; server-side middleware moves them into the request context.
const (
	hdrRequest = "X-Bench-Request"
	hdrParent  = "X-Bench-Parent"
)

// span is one timed call into a layer. Times are nanoseconds on the
// tracer's monotonic clock. req is 0 for plan spans: PlanFunc takes no
// context, so planning is attributed per workload, not per request.
type span struct {
	layer      string
	id, parent uint64
	req        uint64
	start, end int64
	replica    string // serve: the replica; client: the replica that answered; plan: the caller
	samples    int    // core: samples scored in the call
}

func (s span) dur() int64 { return s.end - s.start }

// spanRef is what the request context carries: the request and the span
// that is the parent of any call made under it.
type spanRef struct{ req, span uint64 }

type ctxKey struct{}

func refFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(ctxKey{}).(spanRef)
	return ref
}

// ctxWith is a context carrying a span reference, for hooks called
// in-process rather than through an HTTP hop.
func ctxWith(req, span uint64) context.Context {
	return context.WithValue(context.Background(), ctxKey{}, spanRef{req: req, span: span})
}

// tracer records spans in memory while on; every hook is a straight
// call-through while off, so one stack serves the untraced and the traced
// window of a run.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64   { return int64(time.Since(t.epoch)) }
func (t *tracer) next() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// handler wraps a server (router or replica) in a span named layer. A
// request without the request header (health probes) is not traced.
func (t *tracer) handler(layer, replica string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseUint(r.Header.Get(hdrRequest), 10, 64)
		if !t.on.Load() || req == 0 {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
		id, start := t.next(), t.now()
		ctx := context.WithValue(r.Context(), ctxKey{}, spanRef{req: req, span: id})
		next.ServeHTTP(w, r.WithContext(ctx))
		t.add(span{layer: layer, id: id, parent: parent, req: req, start: start, end: t.now(), replica: replica})
	})
}

// transport forwards the request context's span reference as headers, so
// the router's proxied calls reach the replica's middleware.
type transport struct{ base http.RoundTripper }

func (tt transport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref := refFrom(r.Context()); ref.req != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(hdrRequest, strconv.FormatUint(ref.req, 10))
		r.Header.Set(hdrParent, strconv.FormatUint(ref.span, 10))
	}
	return tt.base.RoundTrip(r)
}

// call records fn as a child span of the context's span.
func (t *tracer) call(ctx context.Context, layer string, samples int, fn func()) {
	if !t.on.Load() {
		fn()
		return
	}
	ref := refFrom(ctx)
	id, start := t.next(), t.now()
	fn()
	t.add(span{layer: layer, id: id, parent: ref.span, req: ref.req, start: start, end: t.now(), samples: samples})
}

// estimate wraps a serve.Config.Deep or Fallback hook.
func (t *tracer) estimate(layer string, fn serve.EstimateFunc) serve.EstimateFunc {
	return func(ctx context.Context, p *physical.Plan, res sparksim.Resources) (c float64, err error) {
		t.call(ctx, layer, 1, func() { c, err = fn(ctx, p, res) })
		return c, err
	}
}

// estimateBatch wraps a serve.Config.DeepBatch hook.
func (t *tracer) estimateBatch(fn serve.BatchEstimateFunc) serve.BatchEstimateFunc {
	return func(ctx context.Context, plans []*physical.Plan, res sparksim.Resources) (cs []float64, err error) {
		t.call(ctx, layerCore, len(plans), func() { cs, err = fn(ctx, plans, res) })
		return cs, err
	}
}

// planner wraps a PlanFunc; caller names the process that planned
// ("fleet" or a replica ID).
func (t *tracer) planner(caller string, fn serve.PlanFunc) serve.PlanFunc {
	return func(sql string) (plans []*raal.Plan, err error) {
		if !t.on.Load() {
			return fn(sql)
		}
		id, start := t.next(), t.now()
		plans, err = fn(sql)
		t.add(span{layer: layerPlan, id: id, start: start, end: t.now(), replica: caller})
		return plans, err
	}
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Overlapping children (a hedge racing its primary, a
// fallback started while an abandoned forward pass still runs) are
// counted once, and any part of a child outside the parent is ignored.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, reach := int64(0), parent.start
	for _, v := range ivs {
		if v.a > reach {
			reach = v.a
		}
		if v.b > reach {
			covered += v.b - reach
			reach = v.b
		}
	}
	return parent.dur() - covered
}
