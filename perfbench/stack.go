package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"raal"
	"raal/internal/fleet"
	"raal/internal/physical"
	"raal/internal/serve"
	"raal/internal/sparksim"
	"raal/internal/telemetry"
)

// The serving stack mirrors cmd/raalserve's flag defaults (a test reads
// them from its source and fails on drift). Flags the benchmark leaves at
// their zero default: -concurrency 0 (GOMAXPROCS), -on-deadline fallback,
// -precision f64, -batch-window 0 and -batch-max 0 (micro-batching off),
// -hedge-after 0 (adaptive hedging), -log-level info.
const (
	serveScale       = 0.1
	serveSeed        = 1
	serveEncodeCache = 256
	serveQueue       = 64
	serveDeadline    = 500 * time.Millisecond
	serveCandidates  = 3
)

// The training corpus and the held-out q-error corpus. The workload seed
// never reaches them, so the served model is the same on every run.
const (
	trainQueries   = 40
	trainEpochs    = 2
	holdoutQueries = 40
	holdoutSeed    = 2 // the training corpus uses the system seed, 1
)

// stack is one stood-up system: the training substrate, the saved model
// every serving copy loads, and the servers of the workload.
type stack struct {
	sys   *raal.System
	ds    *raal.Dataset
	model []byte

	replicas []*replica
	router   *server
	fleetMet *fleet.Metrics
	routerRT *fleet.Router

	local    *raal.CostModel // recommend_grid's in-process model
	localReg *telemetry.Registry

	// times is this set-up's wall time in seconds, in total (setup_s)
	// and split by layer, keyed by metric name.
	times map[string]float64
}

// server is one loopback HTTP listener and the goroutine serving it.
type server struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return s, nil
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.done
}

// replica is one raalserve replica process, in-process.
type replica struct {
	id  string
	reg *telemetry.Registry // the model's and the server's metrics
	*server
}

// infoLogger formats every record at raalserve's default level and
// discards it: the per-request log cost is paid without flooding output.
func infoLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

// newStack stands the system up: open, collect, train, then the servers
// the workload needs, ready to answer. tr, when non-nil, installs the
// tracing hooks (off until the traced window turns them on).
func newStack(w string, tr *tracer) (*stack, error) {
	st := &stack{}
	t0 := time.Now()
	var err error
	if st.sys, err = raal.Open(raal.IMDB, serveScale, serveSeed); err != nil {
		return nil, err
	}
	t1 := time.Now()
	if st.ds, err = st.sys.Collect(raal.CollectOptions{NumQueries: trainQueries}); err != nil {
		return nil, err
	}
	t2 := time.Now()
	cm, _, err := raal.TrainCostModel(st.ds, raal.RAAL(), raal.TrainOptions{Epochs: trainEpochs})
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	var buf bytes.Buffer
	if err := raal.SaveModel(&buf, cm); err != nil {
		return nil, err
	}
	st.model = buf.Bytes()
	if err := st.startServing(w, tr); err != nil {
		st.close()
		return nil, err
	}
	t4 := time.Now()
	st.times = map[string]float64{
		"datagen.open_s":     t1.Sub(t0).Seconds(),
		"workload.collect_s": t2.Sub(t1).Seconds(),
		"core.fit_s":         t3.Sub(t2).Seconds(),
		"serve.start_s":      t4.Sub(t3).Seconds(),
		"setup_s":            t4.Sub(t0).Seconds(),
	}
	return st, nil
}

func (st *stack) startServing(w string, tr *tracer) error {
	switch w {
	case wlRecommend:
		cm, reg, err := st.loadModel()
		if err != nil {
			return err
		}
		st.local, st.localReg = cm, reg
		return nil
	case wlSelect:
		r, err := st.startReplica("r0", tr)
		if err != nil {
			return err
		}
		st.replicas = append(st.replicas, r)
		return waitReady(r.url)
	}
	for _, id := range []string{"r0", "r1"} {
		r, err := st.startReplica(id, tr)
		if err != nil {
			return err
		}
		st.replicas = append(st.replicas, r)
	}
	if err := st.startRouter(tr); err != nil {
		return err
	}
	return waitReady(st.router.url)
}

// loadModel is raalserve -model: a fresh copy of the saved model,
// instrumented, with the default encode cache.
func (st *stack) loadModel() (*raal.CostModel, *telemetry.Registry, error) {
	cm, err := raal.LoadCostModel(bytes.NewReader(st.model))
	if err != nil {
		return nil, nil, err
	}
	reg := telemetry.NewRegistry()
	cm.Instrument(reg)
	cm.EnableEncodeCache(serveEncodeCache)
	return cm, reg, nil
}

// startReplica wires one replica exactly as raalserve's default replica
// mode does, plus the tracing hooks when tr is non-nil.
func (st *stack) startReplica(id string, tr *tracer) (*replica, error) {
	sys, err := raal.Open(raal.IMDB, serveScale, serveSeed)
	if err != nil {
		return nil, err
	}
	cm, reg, err := st.loadModel()
	if err != nil {
		return nil, err
	}
	gpsj := raal.NewGPSJBaseline()
	met := serve.NewMetrics(reg)
	cfg := serve.Config{
		Deep: func(ctx context.Context, p *physical.Plan, res sparksim.Resources) (float64, error) {
			return cm.EstimateCtx(ctx, p, res)
		},
		DeepBatch: func(ctx context.Context, plans []*physical.Plan, res sparksim.Resources) ([]float64, error) {
			return cm.EstimateBatchCtx(ctx, plans, res, raal.PredictOpts{})
		},
		Fallback: func(_ context.Context, p *physical.Plan, res sparksim.Resources) (float64, error) {
			return gpsj.Estimate(p, res), nil
		},
		QueueDepth: serveQueue,
		Deadline:   serveDeadline,
		OnDeadline: serve.FallbackOnDeadline,
		Metrics:    met,
	}
	var planMu sync.Mutex
	planner := serve.PlanFunc(func(sql string) ([]*physical.Plan, error) {
		planMu.Lock()
		defer planMu.Unlock()
		return sys.Plan(sql)
	})
	if tr != nil {
		cfg.Deep = tr.estimate(layerCore, cfg.Deep)
		cfg.DeepBatch = tr.estimateBatch(cfg.DeepBatch)
		cfg.Fallback = tr.estimate(layerBaselines, cfg.Fallback)
		planner = tr.planner(id, planner)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	h, err := serve.NewHandler(srv, serve.HTTPConfig{
		Planner:       planner,
		MaxCandidates: serveCandidates,
		Metrics:       met,
		Logger:        infoLogger(),
		CacheStats: func() []serve.CacheKeyStats {
			stats := cm.EncodeCacheKeyStats()
			out := make([]serve.CacheKeyStats, len(stats))
			for i, s := range stats {
				out[i] = serve.CacheKeyStats{Key: s.Key, Precision: s.Precision, Hits: s.Hits}
			}
			return out
		},
	})
	if err != nil {
		return nil, err
	}
	var root http.Handler = h
	if tr != nil {
		root = tr.handler(layerServe, id, h)
	}
	s, err := listen(root)
	if err != nil {
		return nil, err
	}
	return &replica{id: id, reg: reg, server: s}, nil
}

// startRouter wires the fleet router as raalserve -route does.
func (st *stack) startRouter(tr *tracer) error {
	sys, err := raal.Open(raal.IMDB, serveScale, serveSeed)
	if err != nil {
		return err
	}
	gpsj := raal.NewGPSJBaseline()
	reps := make([]fleet.Replica, len(st.replicas))
	ids := make([]string, len(st.replicas))
	for i, r := range st.replicas {
		reps[i] = fleet.Replica{ID: r.id, URL: r.url}
		ids[i] = r.id
	}
	st.fleetMet = fleet.NewMetrics(telemetry.NewRegistry(), ids)
	var planMu sync.Mutex
	cfg := fleet.Config{
		Replicas: reps,
		Planner: func(sql string) ([]*physical.Plan, error) {
			planMu.Lock()
			defer planMu.Unlock()
			return sys.Plan(sql)
		},
		Fingerprint: raal.PlanFingerprint,
		Fallback: func(_ context.Context, p *physical.Plan, res sparksim.Resources) (float64, error) {
			return gpsj.Estimate(p, res), nil
		},
		MaxCandidates: serveCandidates,
		Seed:          serveSeed,
		Metrics:       st.fleetMet,
		Logger:        infoLogger(),
	}
	if tr != nil {
		cfg.Planner = tr.planner(layerFleet, cfg.Planner)
		// The router's default client, with the span reference forwarded.
		cfg.Client = &http.Client{Transport: transport{base: &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     30 * time.Second,
		}}}
	}
	if st.routerRT, err = fleet.New(cfg); err != nil {
		return err
	}
	var root http.Handler = st.routerRT
	if tr != nil {
		root = tr.handler(layerFleet, "", st.routerRT)
	}
	st.router, err = listen(root)
	return err
}

// waitReady polls GET /readyz until it answers 200.
func waitReady(url string) error {
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/readyz not ready after 10s: %w", url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops every server and waits for its goroutines to end.
func (st *stack) close() {
	if st.router != nil {
		st.router.close()
	}
	if st.routerRT != nil {
		st.routerRT.Close()
	}
	for _, r := range st.replicas {
		r.close()
	}
}

// encodeCounts sums the encode-cache hit and miss counters of every
// serving model copy.
func (st *stack) encodeCounts() (hits, misses uint64) {
	regs := []*telemetry.Registry{st.localReg}
	for _, r := range st.replicas {
		regs = append(regs, r.reg)
	}
	for _, reg := range regs {
		if reg == nil {
			continue
		}
		hits += reg.NewCounter("raal_encode_cache_hits_total", "").Value()
		misses += reg.NewCounter("raal_encode_cache_misses_total", "").Value()
	}
	return hits, misses
}

// fleetCounts reads the router's hedge and retry counters.
func (st *stack) fleetCounts() (hedges, retries uint64) {
	if st.fleetMet == nil {
		return 0, 0
	}
	return st.fleetMet.Hedges.With("fired").Value(), st.fleetMet.Retries.Value()
}
