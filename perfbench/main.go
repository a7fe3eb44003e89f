// Command perfbench is the repository's end-to-end benchmark: SQL in,
// answer out, through the real serving stack.
//
// One run opens synthetic IMDB, trains RAAL, stands up the servers with
// cmd/raalserve's defaults, drives one named, seeded workload in a closed
// loop, checks every answer against an in-process reference, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer ledger). The
// last line of standard output is the JSON result. See README.md.
//
//	go run . -workload select_cold -seed 1 -seconds 30 -trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"raal"
)

// setupReps is how many times a run stands the stack up; setup_s is the
// median. Only the last stack serves the workload.
const setupReps = 3

func main() {
	var (
		wl      = flag.String("workload", "", "workload: select_cold, routed_hot or recommend_grid")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 30, "length of the measured window")
		trace   = flag.Int("trace", 0, "0 prints end-to-end metrics; 1 prints the traced per-layer ledger")
	)
	flag.Parse()
	switch *wl {
	case wlSelect, wlRouted, wlRecommend:
	default:
		fatalf("unknown -workload %q", *wl)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}
	if err := run(*wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(wl string, seed int64, window time.Duration, traced bool) error {
	prov := provenance(wl, seed, window, traced)
	fmt.Printf("perfbench %s\n", prov)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var (
		st    *stack
		times = map[string][]float64{}
	)
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.close()
			st = nil
			runtime.GC()
		}
		var err error
		if st, err = newStack(wl, tr); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		for k, v := range st.times {
			times[k] = append(times[k], v)
		}
	}
	defer st.close()
	setup := map[string]float64{}
	for k, vs := range times {
		setup[k] = median(vs).Value
	}
	fmt.Printf("setup, median of %d: %v\n", setupReps, times)

	// Reference answers and the held-out corpus come from another copy of
	// the saved model, outside set-up and outside the timed window.
	oracle, err := raal.LoadCostModel(bytes.NewReader(st.model))
	if err != nil {
		return err
	}
	qe, err := holdoutQError(st, oracle)
	if err != nil {
		return err
	}
	d, err := newLoop(wl, st, seed, oracle, tr)
	if err != nil {
		return err
	}
	defer d.close()
	fmt.Printf("load: closed loop, %d client(s), %d distinct requests, %d warm-up ops\n", d.clients, d.keys, d.warm)

	var seq atomic.Uint64
	warm := drive(d, &seq, 0, d.warm)
	if warm.failed > 0 {
		fmt.Printf("warm-up: %d of %d failed: %v\n", warm.failed, warm.attempted, warm.reasons)
	}

	out := result{Metrics: map[string]metric{}}
	if !traced {
		w := drive(d, &seq, window, 0)
		out.Attempted, out.Failed = w.attempted, w.failed
		p50, p90, p99 := median(w.latMs), tail(w.latMs, 90), tail(w.latMs, 99)
		fmt.Printf("window: %d ops in %.2fs, %d failed %v\n", w.attempted, w.elapsed.Seconds(), w.failed, w.reasons)
		fmt.Printf("latency over %d samples: p50 %.3f ms, p%.2f %.3f ms, p%.2f %.3f ms (each tail has at least %d samples beyond it)\n",
			p50.N, p50.Value, p90.Pct, p90.Value, p99.Pct, p99.Value, minBeyond)
		out.Metrics["setup_s"] = metric{setup["setup_s"], "s"}
		out.Metrics["throughput_rps"] = metric{w.throughput(), "ops/s"}
		out.Metrics["latency_p50_ms"] = metric{p50.Value, "ms"}
		out.Metrics["latency_p90_ms"] = metric{p90.Value, "ms"}
		out.Metrics["success_rate"] = metric{float64(w.attempted-w.failed) / float64(max(w.attempted, 1)), "fraction"}
		out.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		out.Metrics["qerror_p50"] = metric{qe[0], "ratio"}
		out.Metrics["qerror_p90"] = metric{qe[1], "ratio"}
		out.Correct = p50.ok && p90.ok && p90.Pct == 90
	} else {
		// Untraced then traced halves of the window on the same stack:
		// their throughput ratio is the tracing overhead.
		plain := drive(d, &seq, window/2, 0)
		h0, m0 := st.encodeCounts()
		f0, r0 := st.fleetCounts()
		tr.on.Store(true)
		w := drive(d, &seq, window/2, 0)
		tr.on.Store(false)
		h1, m1 := st.encodeCounts()
		f1, r1 := st.fleetCounts()
		out.Attempted, out.Failed = plain.attempted+w.attempted, plain.failed+w.failed
		l := buildLedger(tr.take())
		fmt.Printf("traced window: %d ops in %.2fs, %d failed %v; %d traced requests, %d core and %d plan spans\n",
			w.attempted, w.elapsed.Seconds(), w.failed, w.reasons, l.requests, len(l.coreDur), len(l.planDur))
		req := float64(max(w.attempted, 1))
		m := l.layerMetrics()
		m["encode.hit_ratio"] = ratio(h1-h0, h1-h0+m1-m0)
		m["encode.misses_per_req"] = float64(m1-m0) / req
		m["fleet.hedges_per_req"] = float64(f1-f0) / req
		m["fleet.retries_per_req"] = float64(r1-r0) / req
		m["fleet.affinity_ratio"] = affinity(w.served)
		for k, v := range setup {
			if k != "setup_s" {
				m[k] = v
			}
		}
		m["trace.overhead_frac"] = 1 - w.throughput()/plain.throughput()
		for name, v := range m {
			out.Metrics[name] = metric{v, layerUnits[name]}
		}
		out.Correct = l.requests > 0
	}
	out.Correct = out.Correct && out.Failed == 0 && warm.failed == 0 && out.Attempted > 0
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6f %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// layerUnits is the unit of each per-layer metric.
var layerUnits = map[string]string{
	"plan.calls_per_req":         "count",
	"plan.ms_p50":                "ms",
	"plan.share":                 "fraction",
	"serve.self_ms_p50":          "ms",
	"fleet.self_ms_p50":          "ms",
	"fleet.hedges_per_req":       "count",
	"fleet.retries_per_req":      "count",
	"fleet.affinity_ratio":       "fraction",
	"encode.hit_ratio":           "fraction",
	"encode.misses_per_req":      "count",
	"core.ms_p50":                "ms",
	"core.samples_per_call":      "count",
	"core.share":                 "fraction",
	"baselines.fallbacks":        "count",
	"client.self_ms_p50":         "ms",
	"datagen.open_s":             "s",
	"workload.collect_s":         "s",
	"core.fit_s":                 "s",
	"serve.start_s":              "s",
	"trace.overhead_frac":        "fraction",
	"trace.stage_sum_violations": "count",
}

// window is what one timed stretch of closed-loop load produced.
type window struct {
	attempted, failed int
	reasons           map[string]int
	latMs             []float64 // correct operations only
	served            map[int]map[string]int
	elapsed           time.Duration
}

func (w window) throughput() float64 {
	return float64(w.attempted-w.failed) / w.elapsed.Seconds()
}

// add folds one operation into the window.
func (w *window) add(r opResult) {
	w.attempted++
	if r.fail != "" {
		w.failed++
		w.reasons[r.fail]++
		return
	}
	w.latMs = append(w.latMs, float64(r.lat)/float64(time.Millisecond))
	if r.replica != "" {
		if w.served[r.key] == nil {
			w.served[r.key] = map[string]int{}
		}
		w.served[r.key][r.replica]++
	}
}

// drive runs the loop's clients in a closed loop, each sending its next
// operation only when the previous one answered, for dur (or, when dur is
// 0, for exactly ops operations in total).
func drive(d *loop, seq *atomic.Uint64, dur time.Duration, ops int) window {
	end := seq.Load() + uint64(ops)
	start := time.Now()
	deadline := start.Add(dur)
	parts := make([][]opResult, d.clients)
	var wg sync.WaitGroup
	for c := 0; c < d.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for dur == 0 || time.Now().Before(deadline) {
				s := seq.Add(1) - 1
				if dur == 0 && s >= end {
					break
				}
				parts[c] = append(parts[c], d.do(c, s))
			}
		}(c)
	}
	wg.Wait()
	w := window{reasons: map[string]int{}, served: map[int]map[string]int{}, elapsed: time.Since(start)}
	for _, p := range parts {
		for _, r := range p {
			w.add(r)
		}
	}
	return w
}

// affinity is the share of each key's answers that came from the replica
// answering most of them, its home: 1 when every key sticks to one
// replica, lower as hedges and failovers spread keys.
func affinity(served map[int]map[string]int) float64 {
	var home, all int
	for _, byRep := range served {
		best := 0
		for _, n := range byRep {
			best = max(best, n)
			all += n
		}
		home += best
	}
	return ratio(uint64(home), uint64(all))
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// holdoutQError prices a corpus collected under a seed training never saw
// and returns the p50 and p90 q-error of the served model on it.
func holdoutQError(st *stack, cm *raal.CostModel) ([2]float64, error) {
	ds, err := st.sys.Collect(raal.CollectOptions{NumQueries: holdoutQueries, Seed: holdoutSeed})
	if err != nil {
		return [2]float64{}, err
	}
	qs := make([]float64, 0, len(ds.Records))
	for _, r := range ds.Records {
		pred := cm.Estimate(r.Plan, r.Res)
		q := math.Max(pred/r.CostSec, r.CostSec/pred)
		if math.IsNaN(q) || math.IsInf(q, 0) || q <= 0 {
			return [2]float64{}, fmt.Errorf("held-out q-error is %v (predicted %v, actual %v)", q, pred, r.CostSec)
		}
		qs = append(qs, q)
	}
	sort.Float64s(qs)
	return [2]float64{qs[rankAt(len(qs), 50)-1], qs[rankAt(len(qs), 90)-1]}, nil
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// provenance describes the host, the build and the mirrored serving
// settings, so a report can be traced to where and how it ran.
func provenance(wl string, seed int64, window time.Duration, traced bool) string {
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	commit += dirty
	p := map[string]any{
		"workload": wl, "seed": seed, "window_s": window.Seconds(), "trace": traced,
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "cpu": cpuModel(), "commit": commit,
		"raalserve": map[string]any{
			"bench": "imdb", "scale": serveScale, "seed": serveSeed,
			"encode-cache": serveEncodeCache, "concurrency": 0, "queue": serveQueue,
			"deadline": serveDeadline.String(), "on-deadline": "fallback", "precision": "f64",
			"batch-window": "0s", "batch-max": 0, "max-candidates": serveCandidates,
			"hedge-after": "0s", "log-level": "info",
		},
		"model": map[string]any{"variant": "RAAL", "train_queries": trainQueries, "epochs": trainEpochs,
			"holdout_queries": holdoutQueries, "holdout_seed": holdoutSeed},
	}
	b, _ := json.Marshal(p) // maps of strings and numbers always marshal
	return string(b)
}

// cpuModel names the host CPU, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
