package core

import (
	"bufio"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"raal/internal/autodiff"
	"raal/internal/encode"
	"raal/internal/nn"
	"raal/internal/sparksim"
	"raal/internal/telemetry"
)

// Config sets the model dimensions. SemDim, MaxNodes, and StatsDim must
// match the encoder that produced the samples.
type Config struct {
	SemDim   int // semantic embedding width (encoder-dependent)
	MaxNodes int // padded plan length
	ResDim   int // resource vector width
	StatsDim int // global statistics width
	Hidden   int // plan feature layer width
	K        int // attention latent dimension (paper: 32)
	Seed     int64
}

// DefaultConfig returns the dimensions used throughout the experiments,
// matched to an encoder with the given semantic width.
func DefaultConfig(semDim, maxNodes int) Config {
	return Config{
		SemDim:   semDim,
		MaxNodes: maxNodes,
		ResDim:   sparksim.NumFeatures,
		StatsDim: encode.NumStats,
		Hidden:   48,
		K:        32,
		Seed:     1,
	}
}

// nodeStatFeatures mirrors encode: per-node stats appended to each row.
const nodeStatFeatures = 2

// Model is a deep cost model of one Variant.
type Model struct {
	Var Variant
	Cfg Config

	// instr receives inference telemetry when set (see Instrument); nil
	// predicts unobserved. Never serialized.
	instr *Instrumentation

	lstm *nn.LSTM
	conv *nn.Conv1D

	wq, wk *nn.Param // node-aware attention projections (Hidden×K)
	wr     *nn.Param // resource query projection (ResDim×K)
	wrk    *nn.Param // resource-side node key projection (Hidden×K)

	head *nn.MLP

	// tapes pools warm inference tapes across Predict calls so the
	// steady-state scoring path allocates no matrices. Never serialized.
	tapes tapePool
}

// maxPooledTapes caps how many warm inference tapes a model retains. More
// concurrent workers than this still run — extras build a cold tape and
// drop it afterwards.
const maxPooledTapes = 16

// tapePool is a mutex-guarded stack of inference tapes. An explicit
// free list (rather than sync.Pool) keeps warm tapes out of the GC's reach,
// so the zero-steady-state-allocation guarantee holds deterministically.
type tapePool struct {
	mu sync.Mutex
	ts []*autodiff.Tape
}

func (p *tapePool) get() *autodiff.Tape {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.ts); n > 0 {
		tp := p.ts[n-1]
		p.ts[n-1] = nil
		p.ts = p.ts[:n-1]
		return tp
	}
	return autodiff.NewInferenceTape()
}

func (p *tapePool) put(tp *autodiff.Tape) {
	tp.Reset() // recycle the last chunk's matrices before parking the tape
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.ts) < maxPooledTapes {
		p.ts = append(p.ts, tp)
	}
}

// NewModel builds a model for the variant with freshly initialized weights.
func NewModel(v Variant, cfg Config) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Var: v, Cfg: cfg}
	in := m.inputDim()
	if v.CNN {
		m.conv = nn.NewConv1D("plan.conv", in, cfg.Hidden, 3, nn.ReLU, rng)
	} else {
		m.lstm = nn.NewLSTM("plan.lstm", in, cfg.Hidden, rng)
	}
	if v.NodeAttention {
		m.wq = nn.NewParam("attn.wq", nn.Xavier(cfg.Hidden, cfg.K, rng))
		m.wk = nn.NewParam("attn.wk", nn.Xavier(cfg.Hidden, cfg.K, rng))
	}
	if v.ResourceAttention {
		m.wr = nn.NewParam("res.wr", nn.Xavier(cfg.ResDim, cfg.K, rng))
		m.wrk = nn.NewParam("res.wk", nn.Xavier(cfg.Hidden, cfg.K, rng))
	}
	m.head = nn.NewMLP("head", []int{m.headDim(), cfg.Hidden, cfg.Hidden / 2, 1}, nn.ReLU, rng)
	return m
}

// inputDim is the per-node input width after variant column selection.
func (m *Model) inputDim() int {
	d := m.Cfg.SemDim + nodeStatFeatures
	if m.Var.Structure {
		d += m.Cfg.MaxNodes
	}
	return d
}

// headDim is the width of the prediction layer's input.
func (m *Model) headDim() int {
	d := m.Cfg.Hidden + m.Cfg.StatsDim
	if m.Var.ResourceAttention {
		d += m.Cfg.Hidden
	}
	return d
}

// Params returns all trainable parameters.
func (m *Model) Params() []*nn.Param {
	var ps []*nn.Param
	if m.lstm != nil {
		ps = append(ps, m.lstm.Params()...)
	}
	if m.conv != nil {
		ps = append(ps, m.conv.Params()...)
	}
	if m.wq != nil {
		ps = append(ps, m.wq, m.wk)
	}
	if m.wr != nil {
		ps = append(ps, m.wr, m.wrk)
	}
	ps = append(ps, m.head.Params()...)
	return ps
}

// nodeInput extracts the model's input row for sample node i, dropping the
// structure segment for NE-LSTM.
func (m *Model) nodeInput(s *encode.Sample, i int, dst []float64) {
	row := s.Nodes.Row(i)
	sem := m.Cfg.SemDim
	if m.Var.Structure {
		copy(dst, row) // full row: semantic | structure | stats
		return
	}
	copy(dst[:sem], row[:sem])
	copy(dst[sem:], row[sem+m.Cfg.MaxNodes:])
}

// forward builds the computation graph for a batch and returns the B×1
// prediction (log-cost scale). The recurrence is unrolled only up to the
// batch's longest real plan — padding rows are fully masked downstream, so
// truncating them is numerically identical and substantially faster.
//
// Samples that share a plan encoding (see planGroups) share its plan-side
// pass: the embed, LSTM/conv, node attention, and resource keys run once
// per distinct plan, and only the resource query, the resource-attention
// row, the stats concat, and the dense head run per sample. Every kernel
// is bit-stable across batch dimensions, so a shared plan's outputs are
// bit-identical to scoring each sample alone, and a chunk of distinct
// plans builds exactly the graph it always did.
//
// sp, when non-nil, receives the per-stage wall-time breakdown (embed →
// lstm/conv → attention → dense); a nil span costs one branch per stage
// boundary.
func (m *Model) forward(tp *autodiff.Tape, batch []*encode.Sample, sp *telemetry.Span) *autodiff.Var {
	plans, planOf := planGroups(batch)
	np := len(plans)
	L := unrollLen(plans)
	in := m.inputDim()

	// Plan feature layer, once per distinct plan.
	perPlanH := make([]*autodiff.Var, np) // each L×Hidden
	if m.lstm != nil {
		stop := sp.Stage("embed")
		// One stacked (L·np)×in input buffer: row t·np+g is plan g's
		// node-t row. Arena-backed; nodeInput overwrites every row, so a
		// recycled matrix needs no clearing beyond what NewMatrix does.
		x := tp.NewMatrix(L*np, in)
		for t := 0; t < L; t++ {
			for g, s := range plans {
				m.nodeInput(s, t, x.Row(t*np+g))
			}
		}
		stop()
		stop = sp.Stage("lstm")
		hs := m.lstm.ForwardStacked(tp, tp.Const(x), L)
		for g := 0; g < np; g++ {
			perPlanH[g] = tp.GatherRows(hs, g)
		}
		stop()
	} else {
		for g, s := range plans {
			stop := sp.Stage("embed")
			x := tp.NewMatrix(L, in)
			for t := 0; t < L; t++ {
				m.nodeInput(s, t, x.Row(t))
			}
			xc := tp.Const(x)
			stop()
			stop = sp.Stage("conv")
			perPlanH[g] = m.conv.Forward(tp, xc)
			stop()
		}
	}

	// The plan-side attention terms are built lazily, at each plan's first
	// sample, so a chunk of distinct plans records its ops in the same
	// order as the per-sample graph (training gradients accumulate in
	// tape order).
	stopAttn := sp.Stage("attention")
	scale := 1 / math.Sqrt(float64(m.Cfg.K))
	pooled := make([]*autodiff.Var, np)
	var keysT []*autodiff.Var // K×L resource keys, transposed
	if m.Var.ResourceAttention {
		keysT = make([]*autodiff.Var, np)
	}
	feats := make([]*autodiff.Var, len(batch))
	for b, s := range batch {
		g := planOf[b]
		h := perPlanH[g]
		mask := plans[g].Mask[:L]
		if pooled[g] == nil {
			if m.Var.NodeAttention {
				children := make([][]bool, L)
				for i := 0; i < L; i++ {
					children[i] = plans[g].Children[i][:L]
				}
				q := tp.MatMul(h, m.wq.Var)
				k := tp.MatMul(h, m.wk.Var)
				scores := tp.Scale(tp.MatMul(q, tp.Transpose(k)), scale)
				attn := tp.SoftmaxRowsMask2D(scores, children)
				attended := tp.MatMul(attn, h)
				// Leaves have no children: their attended rows are zero,
				// so blend with the raw hidden state before pooling.
				pooled[g] = tp.MeanRowsMasked(tp.Add(attended, h), mask)
			} else {
				pooled[g] = tp.MeanRowsMasked(h, mask)
			}
		}

		parts := []*autodiff.Var{pooled[g]}
		if m.Var.ResourceAttention {
			rv := tp.NewMatrix(1, len(s.Resource))
			copy(rv.Data, s.Resource)
			r := tp.Const(rv)
			q := tp.MatMul(r, m.wr.Var) // 1×K
			if keysT[g] == nil {
				keysT[g] = tp.Transpose(tp.MatMul(h, m.wrk.Var)) // K×L
			}
			scores := tp.Scale(tp.MatMul(q, keysT[g]), scale) // 1×L
			battn := tp.SoftmaxRows(scores, mask)
			parts = append(parts, tp.MatMul(battn, h)) // 1×Hidden
		}
		sv := tp.NewMatrix(1, len(s.Stats))
		copy(sv.Data, s.Stats)
		parts = append(parts, tp.Const(sv))
		feats[b] = tp.ConcatCols(parts...)
	}
	stopAttn()
	defer sp.Stage("dense")()
	return m.head.Forward(tp, tp.ConcatRows(feats...))
}

// planGroups partitions a chunk by shared plan encoding. Samples share an
// encoding when their Nodes matrices are pointer-identical — the shallow
// per-allocation copies a resource sweep makes of one encoded plan — and
// such samples must then share Mask and Children too; only Resource and
// Stats may differ. It returns each distinct plan's first sample in order
// of first appearance, and each sample's index into that list.
// Independently encoded samples never share a Nodes matrix, so a training
// batch (or any chunk of distinct plans) is all singleton groups.
//
// The search scans the plans seen so far from the most recent back: a
// sweep's copies are contiguous, so each matches on the first compare,
// and a default 64-sample chunk of distinct plans costs at most ~2,000
// pointer compares and no allocation beyond the two result slices.
func planGroups(batch []*encode.Sample) (plans []*encode.Sample, planOf []int) {
	plans = make([]*encode.Sample, 0, len(batch))
	planOf = make([]int, len(batch))
	for b, s := range batch {
		g := len(plans) - 1
		for g >= 0 && plans[g].Nodes != s.Nodes {
			g--
		}
		if g < 0 {
			g = len(plans)
			plans = append(plans, s)
		}
		planOf[b] = g
	}
	return plans, planOf
}

// unrollLen is the chunk's unroll depth: its longest active plan, at
// least 1.
func unrollLen(plans []*encode.Sample) int {
	L := 1
	for _, s := range plans {
		if l := activeLen(s); l > L {
			L = l
		}
	}
	return L
}

// replica returns a model that shares m's weight matrices but owns private
// gradient accumulators, so concurrent shards can run forward/backward on
// independent tapes without racing on the shared nn.Param set. Params()
// returns the replica's parameters in the same order as the original's,
// which is what lets shard gradients be merged positionally.
func (m *Model) replica() *Model {
	r := &Model{Var: m.Var, Cfg: m.Cfg}
	if m.lstm != nil {
		r.lstm = m.lstm.ShareWeights()
	}
	if m.conv != nil {
		r.conv = m.conv.ShareWeights()
	}
	if m.wq != nil {
		r.wq, r.wk = m.wq.Shadow(), m.wk.Shadow()
	}
	if m.wr != nil {
		r.wr, r.wrk = m.wr.Shadow(), m.wrk.Shadow()
	}
	r.head = m.head.ShareWeights()
	return r
}

// PredictOpts tunes data-parallel inference. The zero value picks the
// defaults: length-bucketed chunks of up to 64 samples per tape, spread
// across GOMAXPROCS worker goroutines. Predictions are bit-identical for
// every Workers, ChunkSize, and NoBucket setting — each sample's output
// depends only on its own rows, so the decomposition is purely a
// throughput knob.
type PredictOpts struct {
	// Workers is the number of goroutines scoring chunks. <=0 means
	// runtime.GOMAXPROCS(0); 1 reproduces the serial scorer.
	Workers int
	// ChunkSize is the number of samples per forward pass (per tape).
	// <=0 means 64.
	ChunkSize int
	// NoBucket disables length-bucketed scheduling: chunks are cut over
	// the samples in input order, and forward unrolls each chunk to its
	// longest member. The default (false) groups samples by active plan
	// length first, so a short plan never pays a long plan's padded LSTM
	// timesteps. Outputs are identical either way; this is the escape
	// hatch for comparing the two schedules.
	NoBucket bool
}

// Predict returns the estimated cost in seconds for each sample, using
// the default data-parallel settings (see PredictOpts).
func (m *Model) Predict(samples []*encode.Sample) []float64 {
	return m.PredictWith(samples, PredictOpts{})
}

// PredictWith returns the estimated cost in seconds for each sample,
// scoring independent chunks on a pool of worker goroutines. The model is
// only read, so a single Model may serve many concurrent PredictWith
// calls.
func (m *Model) PredictWith(samples []*encode.Sample, opt PredictOpts) []float64 {
	out, _ := m.PredictCtx(context.Background(), samples, opt) // Background never cancels
	return out
}

// PredictCtx is PredictWith with cooperative cancellation: the context is
// consulted once per chunk, so a cancelled or expired context aborts the
// batch within one forward pass and returns ctx.Err() (context.Canceled or
// context.DeadlineExceeded) with nil predictions. An un-cancellable
// context adds only a nil check per chunk — predictions are bit-identical
// to PredictWith for every PredictOpts setting.
func (m *Model) PredictCtx(ctx context.Context, samples []*encode.Sample, opt PredictOpts) ([]float64, error) {
	return m.predictCtx(ctx, samples, opt, nil)
}

// PredictSpan scores samples serially (one worker, so stage wall times
// never overlap) while accumulating the per-stage forward-pass breakdown
// into sp: encode-side callers add their own stages, then embed →
// lstm/conv → attention → dense → decode land here. Predictions are
// bit-identical to Predict. The caller owns sp's lifecycle (End).
func (m *Model) PredictSpan(samples []*encode.Sample, sp *telemetry.Span) []float64 {
	out, _ := m.predictCtx(context.Background(), samples, PredictOpts{Workers: 1}, sp)
	return out
}

// PredictTraced is PredictSpan with the span created, ended, and
// returned for inspection — the one-call way to decompose a predict into
// stage timings:
//
//	preds, span := m.PredictTraced(samples)
//	for _, st := range span.Stages() { ... }
func (m *Model) PredictTraced(samples []*encode.Sample) ([]float64, *telemetry.Span) {
	sp := telemetry.StartSpan("predict")
	out := m.PredictSpan(samples, sp)
	sp.End()
	return out, sp
}

// activeLen returns the number of leading timesteps the model must unroll
// for s: the last true Mask index plus one. The floor of 1 matches
// forward's unroll minimum for fully padded samples.
func activeLen(s *encode.Sample) int {
	for i := len(s.Mask) - 1; i >= 0; i-- {
		if s.Mask[i] {
			return i + 1
		}
	}
	return 1
}

// chunkRange is one forward pass's slice of the scheduled sample order.
type chunkRange struct{ lo, hi int }

// schedule decides which samples share a forward pass. The default is
// length-bucketed: samples are grouped by active plan length (counting
// sort — ascending length, input order within a bucket) and chunks never
// span two lengths, so forward's unroll depth is exact for every chunk
// and a 3-node plan never pays a 50-node plan's padded timesteps. The
// returned order maps scheduled position to caller index (nil means
// identity, the unbucketed path). Scheduling only regroups samples —
// pooling and attention are mask-invariant, so every sample's arithmetic
// is untouched and predictions are bit-identical with bucketing on and
// off (pinned by TestBucketedPredictBitIdentical).
func (m *Model) schedule(samples []*encode.Sample, chunk int, noBucket bool) ([]*encode.Sample, []int, []chunkRange) {
	return scheduleSamples(samples, chunk, noBucket, m.instr)
}

// scheduleSamples is the scheduler shared by the float64 Model and the
// reduced-precision QModel (which has its own instrumentation handle).
func scheduleSamples(samples []*encode.Sample, chunk int, noBucket bool, instr *Instrumentation) ([]*encode.Sample, []int, []chunkRange) {
	n := len(samples)
	if noBucket || n <= 1 {
		chunks := make([]chunkRange, 0, (n+chunk-1)/chunk)
		for lo := 0; lo < n; lo += chunk {
			chunks = append(chunks, chunkRange{lo, min(lo+chunk, n)})
		}
		return samples, nil, chunks
	}
	lens := make([]int, n)
	maxLen := 1
	for i, s := range samples {
		lens[i] = activeLen(s)
		if lens[i] > maxLen {
			maxLen = lens[i]
		}
	}
	// starts[l] is the first scheduled position of length l; the copy in
	// count[] is consumed as the insertion cursor.
	starts := make([]int, maxLen+2)
	for _, l := range lens {
		starts[l+1]++
	}
	for l := 1; l < len(starts); l++ {
		starts[l] += starts[l-1]
	}
	count := append([]int(nil), starts...)
	order := make([]int, n)
	scored := make([]*encode.Sample, n)
	for i, s := range samples {
		p := count[lens[i]]
		count[lens[i]]++
		order[p] = i
		scored[p] = s
	}
	instr.observeBuckets(lens)
	var chunks []chunkRange
	for l := 1; l <= maxLen; l++ {
		for lo := starts[l]; lo < starts[l+1]; lo += chunk {
			chunks = append(chunks, chunkRange{lo, min(lo+chunk, starts[l+1])})
		}
	}
	return scored, order, chunks
}

// predictCtx is the shared scorer behind Predict/PredictCtx/PredictSpan.
// A non-nil span forces the serial path (callers pass Workers: 1), so
// stage durations sum to at most the call's wall time.
func (m *Model) predictCtx(ctx context.Context, samples []*encode.Sample, opt PredictOpts, sp *telemetry.Span) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	out := make([]float64, len(samples))
	chunk := opt.ChunkSize
	if chunk <= 0 {
		chunk = 64
	}
	scored, order, chunks := m.schedule(samples, chunk, opt.NoBucket)
	nChunks := len(chunks)
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nChunks {
		workers = nChunks
	}

	// Each worker leases one warm tape for its whole run and resets it
	// between chunks, so all matrices a chunk's graph needs come from the
	// tape's arena: the steady-state scoring path performs zero matrix
	// allocations. Predictions are extracted before the next Reset.
	score := func(tp *autodiff.Tape, k int) {
		c := chunks[k]
		tp.Reset()
		pred := m.forward(tp, scored[c.lo:c.hi], sp)
		defer sp.Stage("decode")()
		for i := c.lo; i < c.hi; i++ {
			dst := i
			if order != nil {
				dst = order[i]
			}
			out[dst] = invTransform(pred.Value.At(i-c.lo, 0))
		}
	}

	if workers <= 1 {
		tp := m.tapes.get()
		defer m.tapes.put(tp)
		for k := 0; k < nChunks; k++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			score(tp, k)
		}
		m.instr.observePredict(len(samples), time.Since(start))
		return out, nil
	}
	var next atomic.Int64
	var aborted atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tp := m.tapes.get()
			defer m.tapes.put(tp)
			for {
				if ctx.Err() != nil {
					aborted.Store(true)
					return
				}
				k := int(next.Add(1)) - 1
				if k >= nChunks {
					return
				}
				score(tp, k)
			}
		}()
	}
	wg.Wait()
	if aborted.Load() {
		return nil, ctx.Err()
	}
	m.instr.observePredict(len(samples), time.Since(start))
	return out, nil
}

// transform maps a cost in seconds to the training scale; the models
// regress log cost, which tames the heavy-tailed label distribution.
func transform(sec float64) float64 { return math.Log1p(sec) }

// invTransform maps a prediction back to seconds.
func invTransform(y float64) float64 {
	v := math.Expm1(y)
	if v < 0 {
		v = 0
	}
	return v
}

// modelSnapshot is the serialized form of a model.
type modelSnapshot struct {
	Var Variant
	Cfg Config
}

// Save writes the model (magic header, variant, config, weights) to w.
func (m *Model) Save(w io.Writer) error {
	if err := WriteHeader(w, ModelMagic, ModelVersion); err != nil {
		return err
	}
	if err := gob.NewEncoder(w).Encode(modelSnapshot{Var: m.Var, Cfg: m.Cfg}); err != nil {
		return fmt.Errorf("core: encoding model header: %w", err)
	}
	return nn.Save(w, m.Params())
}

// LoadModel reads a model previously written by Save. Truncated, corrupt,
// foreign, and version-mismatched files are rejected with descriptive
// errors rather than opaque gob failures or panics.
func LoadModel(r io.Reader) (*Model, error) {
	// The stream holds two gob sections (header, then weights), each read
	// by its own decoder. A gob.Decoder wraps any reader that is not an
	// io.ByteReader in its own read-ahead buffer, which would consume
	// bytes belonging to the next section — so give all sections one
	// shared buffered reader. (bytes.Buffer is already a ByteReader,
	// which is why only file-backed loads ever desynchronized.)
	if _, ok := r.(io.ByteReader); !ok {
		r = bufio.NewReader(r)
	}
	if err := ReadHeader(r, ModelMagic, ModelVersion, "model"); err != nil {
		return nil, err
	}
	var snap modelSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decoding model header (truncated or corrupt model file): %w", err)
	}
	if err := snap.Cfg.validate(); err != nil {
		return nil, err
	}
	m := NewModel(snap.Var, snap.Cfg)
	if err := nn.Load(r, m.Params()); err != nil {
		return nil, fmt.Errorf("core: loading model weights (truncated or corrupt model file): %w", err)
	}
	return m, nil
}

// validate rejects decoded configurations whose dimensions could not have
// come from a real save — NewModel would panic allocating them otherwise,
// so a corrupt (but gob-parseable) header must be caught here.
func (c Config) validate() error {
	switch {
	case c.SemDim <= 0 || c.SemDim > 1<<20:
		return fmt.Errorf("core: corrupt model file: semantic dim %d out of range", c.SemDim)
	case c.MaxNodes <= 0 || c.MaxNodes > 1<<20:
		return fmt.Errorf("core: corrupt model file: max nodes %d out of range", c.MaxNodes)
	case c.ResDim <= 0 || c.ResDim > 1<<20:
		return fmt.Errorf("core: corrupt model file: resource dim %d out of range", c.ResDim)
	case c.StatsDim < 0 || c.StatsDim > 1<<20:
		return fmt.Errorf("core: corrupt model file: stats dim %d out of range", c.StatsDim)
	case c.Hidden <= 0 || c.Hidden > 1<<20:
		return fmt.Errorf("core: corrupt model file: hidden dim %d out of range", c.Hidden)
	case c.K <= 0 || c.K > 1<<20:
		return fmt.Errorf("core: corrupt model file: attention dim %d out of range", c.K)
	}
	return nil
}
