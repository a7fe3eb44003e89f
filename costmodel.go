package raal

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"

	"raal/internal/core"
	"raal/internal/encode"
	"raal/internal/telemetry"
	"raal/internal/workload"
)

// Cost-model files open with a magic string and format version so that
// loading a truncated, corrupt, or non-model file fails with a clear
// error instead of an opaque gob failure (see core.ReadHeader).
const (
	costModelMagic        = "RAALcm"
	costModelVersion byte = 1
)

// CostModel is a trained end-to-end cost estimator: a fitted feature
// encoder plus a deep network of some Variant.
type CostModel struct {
	enc    *encode.Encoder
	model  *core.Model
	qmodel *core.QModel // nil while serving the f64 reference path; see EnablePrecision
	instr  *core.Instrumentation
	api    apiCounters
	cache  *encodeCache // nil until EnableEncodeCache
}

// apiCounters tracks public estimation-API usage. The zero value (nil
// counters) is inert, so an uninstrumented model pays only nil checks.
type apiCounters struct {
	estimates  *telemetry.Counter // Estimate / EstimateCtx / EstimateBatch* calls
	selects    *telemetry.Counter // SelectPlan / SelectPlanCtx calls
	recommends *telemetry.Counter // RecommendResources* calls
	encHits    *telemetry.Counter // encode-cache lookups served without re-encoding
	encMisses  *telemetry.Counter // encode-cache lookups that fell through to EncodePlan
	gateFails  *telemetry.Counter // quantized snapshots refused by the accuracy gate
}

// Instrument registers this model's telemetry on reg: API call counters
// (raal_api_*) plus the core inference and training metric families
// (predict latency/throughput, epoch progress). Call once at wiring time,
// before the model starts serving; the counters are then updated lock-free
// on every API call. Registration is get-or-create, so instrumenting
// several models on one registry aggregates them into the same families.
//
// Note SelectPlan and RecommendResources route through the batch
// estimation path internally; raal_api_estimates_total counts only direct
// Estimate/EstimateBatch calls, not those internal reuses.
func (cm *CostModel) Instrument(reg *telemetry.Registry) {
	cm.api.estimates = reg.NewCounter("raal_api_estimates_total",
		"Direct cost-estimation API calls (Estimate and EstimateBatch variants).")
	cm.api.selects = reg.NewCounter("raal_api_plan_selections_total",
		"Plan-selection API calls (SelectPlan variants).")
	cm.api.recommends = reg.NewCounter("raal_api_resource_recommendations_total",
		"Resource-recommendation API calls (RecommendResources variants).")
	cm.api.encHits = reg.NewCounter("raal_encode_cache_hits_total",
		"Plan encodings served from the feature-encoding cache.")
	cm.api.encMisses = reg.NewCounter("raal_encode_cache_misses_total",
		"Plan encodings that missed the feature-encoding cache.")
	cm.api.gateFails = reg.NewCounter("raal_quant_gate_failures_total",
		"Quantized model snapshots refused by the accuracy gate (serving stayed on float64).")
	cm.instr = core.NewInstrumentation(reg)
	cm.model.Instrument(cm.instr)
	if cm.qmodel != nil {
		cm.qmodel.Instrument(cm.instr)
	}
}

// EnableEncodeCache attaches an LRU of up to capacity encoded plans to the
// estimation APIs: a repeated (plan, resources) pair reuses its cached
// feature sample instead of re-walking the operator tree. Estimates are
// bit-identical with and without the cache (the encoder is deterministic
// and samples are immutable once built). capacity <= 0 disables caching.
// Safe for concurrent use once set, but call before the model starts
// serving; hits and misses are visible as raal_encode_cache_{hits,misses}
// when the model is instrumented.
func (cm *CostModel) EnableEncodeCache(capacity int) {
	if capacity <= 0 {
		cm.cache = nil
		return
	}
	cm.cache = newEncodeCache(capacity)
}

// encodePlan is the cache-aware front door to the encoder: every
// estimation path routes through it so hit accounting stays consistent.
// Cache entries are tagged with the active serving precision, so a
// precision switch starts attributing (and warming) its own entries
// instead of inheriting the previous mode's hit counts.
func (cm *CostModel) encodePlan(p *Plan, res Resources) *Sample {
	return cm.encodePlanAt(cm.Precision().String(), p, res)
}

// encodePlanAt is encodePlan with an explicit precision tag. The online
// serving layer passes the live champion's precision, which can differ
// from cm's own (the champion hot-swaps and may fall back to f64 on a
// gate refusal).
func (cm *CostModel) encodePlanAt(prec string, p *Plan, res Resources) *Sample {
	if cm.cache == nil {
		return cm.enc.EncodePlan(p, res)
	}
	key := planKey(p, res)
	if s, ok := cm.cache.get(prec, key); ok {
		cm.api.encHits.Inc()
		return s
	}
	cm.api.encMisses.Inc()
	s := cm.enc.EncodePlan(p, res)
	cm.cache.add(prec, key, s)
	return s
}

// Precision reports the numeric format the estimation APIs currently
// serve at: PrecisionF64 until EnablePrecision installs a quantized
// snapshot, then that snapshot's precision.
func (cm *CostModel) Precision() core.Precision {
	if cm.qmodel != nil {
		return cm.qmodel.Precision
	}
	return core.PrecisionF64
}

// EnablePrecision switches the serving precision of every estimation
// API. PrecisionF64 restores the float64 reference path (always
// succeeds). A reduced precision quantizes the trained model
// (core.Model.Quantize) and — when gate samples are supplied — runs the
// accuracy gate (core.VerifyQuantized) before installing it: the
// GateQuantile q-error delta between the quantized and float64
// predictions over gate must stay within maxQDelta. On refusal the
// typed *core.QuantGateError is returned, raal_quant_gate_failures_total
// is incremented (when instrumented), and serving keeps its previous
// precision. An empty gate set installs without verification — for
// interactive tools; serving paths should always gate.
//
// Like EnableEncodeCache, call at wiring time, before the model starts
// serving; the switch is not synchronized against in-flight estimates.
func (cm *CostModel) EnablePrecision(p core.Precision, gate []*Sample, maxQDelta float64) error {
	if p == core.PrecisionF64 {
		cm.qmodel = nil
		return nil
	}
	qm, err := cm.model.Quantize(core.QuantConfig{Precision: p})
	if err != nil {
		return err
	}
	if len(gate) > 0 {
		if err := core.VerifyQuantized(cm.model, qm, gate, maxQDelta); err != nil {
			cm.api.gateFails.Inc()
			return err
		}
	}
	if cm.instr != nil {
		qm.Instrument(cm.instr)
	}
	cm.qmodel = qm
	return nil
}

// predict/predictWith/predictCtx/predictSpan dispatch one forward pass
// to the active precision's model. Every estimation API routes through
// these, so a precision switch covers Estimate, SelectPlan, and
// RecommendResources uniformly.
func (cm *CostModel) predict(samples []*Sample) []float64 {
	if q := cm.qmodel; q != nil {
		return q.Predict(samples)
	}
	return cm.model.Predict(samples)
}

func (cm *CostModel) predictWith(samples []*Sample, opt core.PredictOpts) []float64 {
	if q := cm.qmodel; q != nil {
		return q.PredictWith(samples, opt)
	}
	return cm.model.PredictWith(samples, opt)
}

func (cm *CostModel) predictCtx(ctx context.Context, samples []*Sample, opt core.PredictOpts) ([]float64, error) {
	if q := cm.qmodel; q != nil {
		return q.PredictCtx(ctx, samples, opt)
	}
	return cm.model.PredictCtx(ctx, samples, opt)
}

func (cm *CostModel) predictSpan(samples []*Sample, sp *telemetry.Span) []float64 {
	if q := cm.qmodel; q != nil {
		return q.PredictSpan(samples, sp)
	}
	return cm.model.PredictSpan(samples, sp)
}

// TrainOptions controls cost-model training.
type TrainOptions struct {
	// Epochs (default 30), Batch (default 16), LR (default 3e-3).
	Epochs int
	Batch  int
	LR     float64
	// TrainFrac is the train split fraction (default 0.8); the remainder
	// becomes the held-out set reported by TrainCostModel.
	TrainFrac float64
	Seed      int64
	// Workers and ShardSize enable data-parallel training: each
	// mini-batch is split into ShardSize-sample shards whose gradients
	// are computed on Workers goroutines and merged in shard order.
	// Workers never changes the trained model; ShardSize fixes the shard
	// boundaries (0 keeps each batch whole, the serial trainer).
	Workers   int
	ShardSize int
	// Progress, if set, receives per-epoch training loss.
	Progress func(epoch int, loss float64)
	// Metrics, if set, receives training telemetry (epoch counter, latest
	// loss, shard throughput) during the run, and the returned CostModel
	// comes back already instrumented on the same registry (equivalent to
	// calling Instrument on it).
	Metrics *telemetry.Registry
}

// TrainReport summarizes a training run.
type TrainReport struct {
	TrainSamples, TestSamples int
	LossCurve                 []float64
	// Held-out metrics (RE and COR/R² on seconds, MSE on the log-cost
	// scale).
	Held Metrics
	// State is the run's resumable training state (optimizer moments and
	// shuffle position). Persist it with SaveCheckpoint to continue the
	// run later — ResumeCostModel from it reproduces an uninterrupted
	// longer run bit for bit.
	State *TrainState
}

// TrainCostModel fits an encoder on ds and trains a cost model of the
// given variant, returning the model and a held-out evaluation.
func TrainCostModel(ds *Dataset, v Variant, opt TrainOptions) (*CostModel, *TrainReport, error) {
	if ds == nil || len(ds.Records) == 0 {
		return nil, nil, fmt.Errorf("raal: empty dataset")
	}
	if opt.TrainFrac == 0 {
		opt.TrainFrac = 0.8
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}

	enc, err := ds.FitEncoder(encode.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	samples := ds.Encode(enc)
	train, test := workload.Split(samples, opt.TrainFrac, opt.Seed)
	if len(train) == 0 {
		return nil, nil, fmt.Errorf("raal: train split is empty")
	}

	semDim := enc.NodeDim() - enc.MaxNodes() - 2
	mc := core.DefaultConfig(semDim, enc.MaxNodes())
	mc.Seed = opt.Seed
	tc := core.DefaultTrainConfig()
	if opt.Epochs > 0 {
		tc.Epochs = opt.Epochs
	}
	if opt.Batch > 0 {
		tc.Batch = opt.Batch
	}
	if opt.LR > 0 {
		tc.LR = opt.LR
	}
	tc.Seed = opt.Seed
	tc.Workers = opt.Workers
	tc.ShardSize = opt.ShardSize
	tc.Progress = opt.Progress
	if opt.Metrics != nil {
		tc.Instr = core.NewInstrumentation(opt.Metrics)
	}
	tc.State = core.NewTrainState()

	model, tr, err := core.Train(train, v, mc, tc)
	if err != nil {
		return nil, nil, err
	}
	report := &TrainReport{
		TrainSamples: len(train),
		TestSamples:  len(test),
		LossCurve:    tr.LossCurve,
		State:        tc.State,
	}
	if len(test) > 0 {
		if report.Held, err = model.Evaluate(test); err != nil {
			return nil, nil, err
		}
	}
	cm := &CostModel{enc: enc, model: model}
	if opt.Metrics != nil {
		cm.Instrument(opt.Metrics)
	}
	return cm, report, nil
}

// Variant returns the architecture this model was trained with.
func (cm *CostModel) Variant() Variant { return cm.model.Var }

// Estimate predicts the execution cost (seconds) of plan p under res.
func (cm *CostModel) Estimate(p *Plan, res Resources) float64 {
	cm.api.estimates.Inc()
	s := cm.encodePlan(p, res)
	return cm.predict([]*Sample{s})[0]
}

// EstimateTraced is Estimate with a per-stage wall-time breakdown: the
// returned span is already ended and decomposes the call into encode →
// embed → lstm/conv → attention → dense → decode stages (stage durations
// sum to at most the span total). The span name carries the active
// serving precision ("estimate[f64]", "estimate[int8]", ...) so traces
// from different precisions are distinguishable. Tracing is
// observation-only — the prediction is bit-identical to Estimate.
func (cm *CostModel) EstimateTraced(p *Plan, res Resources) (float64, *telemetry.Span) {
	cm.api.estimates.Inc()
	sp := telemetry.StartSpan("estimate[" + cm.Precision().String() + "]")
	stop := sp.Stage("encode")
	s := cm.encodePlan(p, res)
	stop()
	preds := cm.predictSpan([]*Sample{s}, sp)
	sp.End()
	return preds[0], sp
}

// EstimateCtx is Estimate with cooperative cancellation: a cancelled or
// expired context aborts the forward pass boundary and returns ctx.Err().
func (cm *CostModel) EstimateCtx(ctx context.Context, p *Plan, res Resources) (float64, error) {
	cm.api.estimates.Inc()
	s := cm.encodePlan(p, res)
	preds, err := cm.predictCtx(ctx, []*Sample{s}, core.PredictOpts{})
	if err != nil {
		return 0, err
	}
	return preds[0], nil
}

// EstimateBatch predicts costs for many (plan, resources) pairs at once,
// scoring chunks across GOMAXPROCS worker goroutines.
func (cm *CostModel) EstimateBatch(plans []*Plan, res Resources) []float64 {
	return cm.EstimateBatchWith(plans, res, core.PredictOpts{})
}

// EstimateBatchWith is EstimateBatch with explicit data-parallelism
// settings; predictions are identical for every opt.
func (cm *CostModel) EstimateBatchWith(plans []*Plan, res Resources, opt core.PredictOpts) []float64 {
	cm.api.estimates.Inc()
	return cm.predictWith(cm.planSamples(plans, res), opt)
}

// EstimateBatchCtx is EstimateBatchWith with cooperative cancellation: a
// cancelled or expired context aborts scoring within one chunk and
// returns ctx.Err(). With a live context the predictions are
// bit-identical to EstimateBatchWith.
func (cm *CostModel) EstimateBatchCtx(ctx context.Context, plans []*Plan, res Resources, opt core.PredictOpts) ([]float64, error) {
	cm.api.estimates.Inc()
	return cm.predictCtx(ctx, cm.planSamples(plans, res), opt)
}

// EstimateEachCtx predicts costs for many independent (plan, resources)
// pairs in one batched forward pass: plans[i] is priced under res[i].
// This is the backing call for the serving layer's micro-batching
// coalescer, where concurrent requests carry their own allocations.
// Predictions are bit-identical to pricing each pair alone with
// EstimateCtx.
func (cm *CostModel) EstimateEachCtx(ctx context.Context, plans []*Plan, res []Resources, opt core.PredictOpts) ([]float64, error) {
	if len(plans) != len(res) {
		return nil, fmt.Errorf("raal: EstimateEachCtx got %d plan(s) but %d resource allocation(s)", len(plans), len(res))
	}
	cm.api.estimates.Inc()
	samples := make([]*Sample, len(plans))
	for i, p := range plans {
		samples[i] = cm.encodePlan(p, res[i])
	}
	return cm.predictCtx(ctx, samples, opt)
}

func (cm *CostModel) planSamples(plans []*Plan, res Resources) []*Sample {
	samples := make([]*Sample, len(plans))
	for i, p := range plans {
		samples[i] = cm.encodePlan(p, res)
	}
	return samples
}

// SelectPlan returns the candidate with the lowest predicted cost and
// that prediction. A nil plan is returned only for an empty candidate set.
func (cm *CostModel) SelectPlan(plans []*Plan, res Resources) (*Plan, float64) {
	if len(plans) == 0 {
		return nil, 0
	}
	cm.api.selects.Inc()
	preds := cm.predict(cm.planSamples(plans, res))
	best := argmin(preds)
	return plans[best], preds[best]
}

// SelectPlanCtx is SelectPlan with cooperative cancellation. As with
// SelectPlan, an empty candidate set yields a nil plan and no error.
func (cm *CostModel) SelectPlanCtx(ctx context.Context, plans []*Plan, res Resources) (*Plan, float64, error) {
	if len(plans) == 0 {
		return nil, 0, nil
	}
	cm.api.selects.Inc()
	preds, err := cm.predictCtx(ctx, cm.planSamples(plans, res), core.PredictOpts{})
	if err != nil {
		return nil, 0, err
	}
	best := argmin(preds)
	return plans[best], preds[best], nil
}

// RecommendResources searches a grid of candidate allocations for the one
// with the cheapest predicted cost for plan p — the inverse of the
// paper's main problem (Sec. II cites resource-matching systems [31,32];
// with a resource-aware cost model the search is a batched inference).
// It returns the winning allocation and its predicted cost.
func (cm *CostModel) RecommendResources(p *Plan, grid []Resources) (Resources, float64) {
	return cm.RecommendResourcesWith(p, grid, core.PredictOpts{})
}

// RecommendResourcesWith is RecommendResources with explicit
// data-parallelism settings; the recommendation is identical for every
// opt (the grid is scored through the same worker-pool path as
// EstimateBatchWith).
func (cm *CostModel) RecommendResourcesWith(p *Plan, grid []Resources, opt core.PredictOpts) (Resources, float64) {
	res, cost, _ := cm.recommend(context.Background(), p, grid, opt) // Background never cancels
	return res, cost
}

// RecommendResourcesCtx is RecommendResources with cooperative
// cancellation; a cancelled or expired context aborts the grid sweep
// within one chunk and returns ctx.Err().
func (cm *CostModel) RecommendResourcesCtx(ctx context.Context, p *Plan, grid []Resources) (Resources, float64, error) {
	return cm.recommend(ctx, p, grid, core.PredictOpts{})
}

// recommend is the grid sweep behind every RecommendResources variant. An
// empty grid yields the zero allocation and no error.
func (cm *CostModel) recommend(ctx context.Context, p *Plan, grid []Resources, opt core.PredictOpts) (Resources, float64, error) {
	if len(grid) == 0 {
		return Resources{}, 0, nil
	}
	cm.api.recommends.Inc()
	preds, err := cm.predictCtx(ctx, cm.gridSamples(p, grid), opt)
	if err != nil {
		return Resources{}, 0, err
	}
	best := argmin(preds)
	return grid[best], preds[best], nil
}

// gridSamples encodes p once — one encode-cache lookup — and returns one
// shallow copy of that sample per allocation, each with its own freshly
// encoded Resource vector. The copies share the plan's Nodes matrix, which
// is how the forward pass recognizes them as one plan and runs its
// plan-side layers once for the whole grid. The encoded (possibly cached)
// sample itself is never mutated.
func (cm *CostModel) gridSamples(p *Plan, grid []Resources) []*Sample {
	base := cm.encodePlan(p, grid[0])
	copies := make([]Sample, len(grid))
	samples := make([]*Sample, len(grid))
	for i, res := range grid {
		copies[i] = *base
		copies[i].Resource = cm.enc.EncodeResource(res)
		samples[i] = &copies[i]
	}
	return samples
}

// argmin returns the index of the smallest finite value (first on ties).
// NaN and ±Inf predictions are skipped, so a degenerate estimate never
// wins while a finite candidate exists; when none is finite it returns 0.
func argmin(xs []float64) int {
	best := -1
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		if best < 0 || x < xs[best] {
			best = i
		}
	}
	return max(best, 0)
}

// DefaultResourceGrid enumerates the standard allocation lattice
// (executors × cores × memory on the 4-node cluster) used for resource
// recommendation.
func DefaultResourceGrid() []Resources {
	var grid []Resources
	base := DefaultResources()
	for _, ex := range []int{1, 2, 4, 8} {
		for _, cores := range []int{1, 2, 4} {
			for _, memGB := range []float64{1, 2, 4, 8, 12} {
				r := base
				r.Executors = ex
				r.ExecCores = cores
				r.ExecMemMB = memGB * 1024
				grid = append(grid, r)
			}
		}
	}
	return grid
}

// EvaluateOn computes the paper's metrics over a slice of encoded,
// labeled samples.
func (cm *CostModel) EvaluateOn(samples []*Sample) (Metrics, error) {
	return cm.model.Evaluate(samples)
}

// EncodeDataset encodes a dataset with this model's fitted encoder (for
// evaluation on fresh corpora).
func (cm *CostModel) EncodeDataset(ds *Dataset) []*Sample {
	return ds.Encode(cm.enc)
}

// Save writes the magic header, encoder, and network weights to w.
func (cm *CostModel) Save(w io.Writer) error {
	if err := core.WriteHeader(w, costModelMagic, costModelVersion); err != nil {
		return err
	}
	if err := cm.enc.Save(w); err != nil {
		return err
	}
	return cm.model.Save(w)
}

// LoadCostModel reads a model previously written by Save. Truncated,
// corrupt, foreign, and version-mismatched files are rejected with
// descriptive errors — never a panic, never an opaque gob failure.
func LoadCostModel(r io.Reader) (*CostModel, error) {
	// The stream holds several gob sections (encoder, model header,
	// weights), each read by its own decoder; decoders wrap non-ByteReader
	// inputs in private read-ahead buffers that steal bytes from the next
	// section. Share one buffered reader so file-backed loads stay
	// aligned.
	if _, ok := r.(io.ByteReader); !ok {
		r = bufio.NewReader(r)
	}
	if err := core.ReadHeader(r, costModelMagic, costModelVersion, "cost model"); err != nil {
		return nil, err
	}
	enc, err := encode.LoadEncoder(r)
	if err != nil {
		return nil, fmt.Errorf("raal: loading cost-model encoder section (truncated or corrupt file): %w", err)
	}
	model, err := core.LoadModel(r)
	if err != nil {
		return nil, err
	}
	return &CostModel{enc: enc, model: model}, nil
}
