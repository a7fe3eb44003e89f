package main

import (
	"time"
)

// ledger is the per-layer breakdown of one traced window.
type ledger struct {
	requests   int
	violations int // requests whose layer self times sum past their client latency

	self map[string][]int64 // layer → per-request self time on the blocking path

	coreDur    []int64
	coreSample int
	planDur    []int64
	planServe  []int64 // the replica-side subset of planDur
	fallbacks  int
	clientSum  int64
}

// buildLedger walks every traced request down its blocking path: client
// → router (routed workloads) → the replica that answered → the forward
// pass and fallback calls made under it. A hedge that lost the race is
// off that path and is not charged to the request.
func buildLedger(spans []span) *ledger {
	l := &ledger{self: map[string][]int64{}}
	kids := map[uint64][]span{}
	var clients []span
	for _, s := range spans {
		switch s.layer {
		case layerPlan:
			l.planDur = append(l.planDur, s.dur())
			if s.replica != layerFleet {
				l.planServe = append(l.planServe, s.dur())
			}
			continue
		case layerCore:
			l.coreDur = append(l.coreDur, s.dur())
			l.coreSample += s.samples
		case layerBaselines:
			l.fallbacks++
		case layerClient:
			clients = append(clients, s)
			continue
		}
		kids[s.parent] = append(kids[s.parent], s)
	}
	for _, c := range clients {
		l.requests++
		l.clientSum += c.dur()
		self := map[string]int64{}
		if sum := walk(c, c.replica, kids, self); sum > c.dur() {
			l.violations++
		}
		for layer, d := range self {
			l.self[layer] = append(l.self[layer], d)
		}
	}
	return l
}

// walk charges s and its blocking-path descendants to self and returns
// the sum of their self times.
func walk(s span, answered string, kids map[uint64][]span, self map[string]int64) int64 {
	children := kids[s.id]
	if s.layer == layerFleet {
		children = winner(children, answered)
	}
	d := selfTime(s, children)
	self[s.layer] += d
	sum := d
	for _, c := range children {
		sum += walk(c, answered, kids, self)
	}
	return sum
}

// winner keeps the replica span whose answer the router relayed: the
// last attempt on the replica named in the response.
func winner(children []span, replica string) []span {
	var w []span
	for _, c := range children {
		if c.layer == layerServe && c.replica == replica && (w == nil || c.start > w[0].start) {
			w = []span{c}
		}
	}
	return w
}

// layerMetrics turns a ledger into the per-layer metrics of one window.
func (l *ledger) layerMetrics() map[string]float64 {
	req := float64(max(l.requests, 1))
	// Replica-side planning runs inside the handler but cannot be tied to
	// its request, so the handler's self time sheds the median plan call.
	servePlan := median(nsToMs(l.planServe)).Value
	serveSelf := nsToMs(l.self[layerServe])
	for i := range serveSelf {
		serveSelf[i] -= servePlan
	}
	m := map[string]float64{
		"plan.calls_per_req":         float64(len(l.planDur)) / req,
		"plan.ms_p50":                median(nsToMs(l.planDur)).Value,
		"plan.share":                 share(l.planDur, l.clientSum),
		"serve.self_ms_p50":          median(serveSelf).Value,
		"fleet.self_ms_p50":          median(nsToMs(l.self[layerFleet])).Value,
		"core.ms_p50":                median(nsToMs(l.coreDur)).Value,
		"core.samples_per_call":      float64(l.coreSample) / float64(max(len(l.coreDur), 1)),
		"core.share":                 share(l.coreDur, l.clientSum),
		"baselines.fallbacks":        float64(l.fallbacks),
		"client.self_ms_p50":         median(nsToMs(l.self[layerClient])).Value,
		"trace.stage_sum_violations": float64(l.violations),
	}
	return m
}

func nsToMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, d := range ns {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func share(ns []int64, total int64) float64 {
	if total == 0 {
		return 0
	}
	var s int64
	for _, d := range ns {
		s += d
	}
	return float64(s) / float64(total)
}
