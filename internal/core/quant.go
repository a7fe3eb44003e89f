package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"raal/internal/autodiff"
	"raal/internal/encode"
	"raal/internal/metrics"
	"raal/internal/nn"
	"raal/internal/telemetry"
	"raal/internal/tensor"
)

// Precision selects the numeric format an inference path runs in. Models
// always train in PrecisionF64; the reduced precisions are post-training
// inference-only conversions (see Model.Quantize) admitted through the
// accuracy gate (VerifyQuantized).
type Precision uint8

// Supported precisions.
const (
	PrecisionF64  Precision = iota // float64 reference path (the Model itself)
	PrecisionF32                   // all weights and arithmetic in float32
	PrecisionInt8                  // f32 arithmetic, int8 per-row LSTM-input/dense weights
)

func (p Precision) String() string {
	switch p {
	case PrecisionF64:
		return "f64"
	case PrecisionF32:
		return "f32"
	case PrecisionInt8:
		return "int8"
	default:
		return fmt.Sprintf("Precision(%d)", uint8(p))
	}
}

// ParsePrecision maps the CLI spelling ("f64", "f32", "int8") back to a
// Precision.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64":
		return PrecisionF64, nil
	case "f32":
		return PrecisionF32, nil
	case "int8":
		return PrecisionInt8, nil
	}
	return 0, fmt.Errorf("core: unknown precision %q (have f64, f32, int8)", s)
}

// QuantConfig tunes Model.Quantize. The zero value is invalid — callers
// pick PrecisionF32 or PrecisionInt8 explicitly.
type QuantConfig struct {
	Precision Precision
}

// QModel is an inference-only reduced-precision snapshot of a Model: the
// same architecture and forward graph, with weights narrowed to float32
// (and, for PrecisionInt8, the LSTM input projection and every dense
// layer stored as symmetric per-row int8 with dequant-to-f32 accumulate).
// It is produced by Model.Quantize, never trained, and never serialized —
// re-quantize from the float64 champion instead.
//
// Predictions are deterministic: bit-identical across worker counts,
// chunk sizes, and bucketing settings, by the same argument as the
// float64 path (tensor kernel contract + per-sample independence). No
// bit relationship with the float64 model's output is promised; that gap
// is what VerifyQuantized bounds.
type QModel struct {
	Var       Variant
	Cfg       Config
	Precision Precision

	instr *Instrumentation

	lstm *nn.LSTM32
	conv *nn.Conv32

	wq, wk *tensor.Matrix32 // node-aware attention projections (Hidden×K)
	wr     *tensor.Matrix32 // resource query projection (ResDim×K)
	wrk    *tensor.Matrix32 // resource-side node key projection (Hidden×K)

	head *nn.MLP32

	tapes tape32Pool
}

// tape32Pool mirrors tapePool for the f32 tape: an explicit free list
// keeps warm tapes out of the GC's reach so the zero-steady-state-
// allocation guarantee holds deterministically.
type tape32Pool struct {
	mu sync.Mutex
	ts []*autodiff.Tape32
}

func (p *tape32Pool) get() *autodiff.Tape32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.ts); n > 0 {
		tp := p.ts[n-1]
		p.ts[n-1] = nil
		p.ts = p.ts[:n-1]
		return tp
	}
	return autodiff.NewTape32()
}

func (p *tape32Pool) put(tp *autodiff.Tape32) {
	tp.Reset()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.ts) < maxPooledTapes {
		p.ts = append(p.ts, tp)
	}
}

// Quantize converts the trained model to an inference-only reduced-
// precision snapshot. PrecisionF32 narrows every weight to float32;
// PrecisionInt8 additionally stores the LSTM input projection (or the
// conv lowering matrix, for RAAC) and every head dense layer as symmetric
// per-row int8. The attention projections, biases, and recurrent weights
// stay f32 in both modes — they are small, and the recurrence and softmax
// amplify their error. The model itself is untouched and remains the
// training/reference path.
func (m *Model) Quantize(qc QuantConfig) (*QModel, error) {
	switch qc.Precision {
	case PrecisionF32, PrecisionInt8:
	default:
		return nil, fmt.Errorf("core: Quantize: %v is not a reduced precision (want f32 or int8)", qc.Precision)
	}
	int8W := qc.Precision == PrecisionInt8
	q := &QModel{Var: m.Var, Cfg: m.Cfg, Precision: qc.Precision}
	if m.lstm != nil {
		q.lstm = nn.NewLSTM32(m.lstm, int8W)
	}
	if m.conv != nil {
		q.conv = nn.NewConv32(m.conv, int8W)
	}
	if m.wq != nil {
		q.wq = tensor.ToMatrix32(m.wq.Value())
		q.wk = tensor.ToMatrix32(m.wk.Value())
	}
	if m.wr != nil {
		q.wr = tensor.ToMatrix32(m.wr.Value())
		q.wrk = tensor.ToMatrix32(m.wrk.Value())
	}
	q.head = nn.NewMLP32(m.head, int8W)
	return q, nil
}

// Instrument attaches the metric set to the quantized model (same set as
// Model.Instrument — the precision split shows up in serving metrics, not
// here).
func (q *QModel) Instrument(ins *Instrumentation) { q.instr = ins }

// inputDim mirrors Model.inputDim.
func (q *QModel) inputDim() int {
	d := q.Cfg.SemDim + nodeStatFeatures
	if q.Var.Structure {
		d += q.Cfg.MaxNodes
	}
	return d
}

// nodeInput32 extracts sample node i's input row, narrowing to f32.
func (q *QModel) nodeInput32(s *encode.Sample, i int, dst []float32) {
	row := s.Nodes.Row(i)
	sem := q.Cfg.SemDim
	if q.Var.Structure {
		for j, v := range row {
			dst[j] = float32(v)
		}
		return
	}
	for j := 0; j < sem; j++ {
		dst[j] = float32(row[j])
	}
	for j, v := range row[sem+q.Cfg.MaxNodes:] {
		dst[sem+j] = float32(v)
	}
}

// forward32 mirrors Model.forward on the f32 tape: same graph, same
// masks, same unroll truncation, same plan sharing (see planGroups), same
// stage boundaries (embed → lstm/conv → attention → dense), with every
// intermediate stored in f32.
func (q *QModel) forward32(tp *autodiff.Tape32, batch []*encode.Sample, sp *telemetry.Span) *tensor.Matrix32 {
	plans, planOf := planGroups(batch)
	np := len(plans)
	L := unrollLen(plans)
	in := q.inputDim()

	perPlanH := make([]*tensor.Matrix32, np)
	if q.lstm != nil {
		stop := sp.Stage("embed")
		x := tp.NewMatrix(L*np, in)
		for t := 0; t < L; t++ {
			for g, s := range plans {
				q.nodeInput32(s, t, x.Row(t*np+g))
			}
		}
		stop()
		stop = sp.Stage("lstm")
		hs := q.lstm.ForwardStacked(tp, x, L)
		for g := 0; g < np; g++ {
			perPlanH[g] = tp.GatherRows(hs, g)
		}
		stop()
	} else {
		for g, s := range plans {
			stop := sp.Stage("embed")
			x := tp.NewMatrix(L, in)
			for t := 0; t < L; t++ {
				q.nodeInput32(s, t, x.Row(t))
			}
			stop()
			stop = sp.Stage("conv")
			perPlanH[g] = q.conv.Forward(tp, x)
			stop()
		}
	}

	stopAttn := sp.Stage("attention")
	scale := float32(1 / math.Sqrt(float64(q.Cfg.K)))
	pooled := make([]*tensor.Matrix32, np)
	var keys []*tensor.Matrix32 // L×K resource keys
	if q.Var.ResourceAttention {
		keys = make([]*tensor.Matrix32, np)
	}
	feats := make([]*tensor.Matrix32, len(batch))
	for b, s := range batch {
		g := planOf[b]
		h := perPlanH[g]
		mask := plans[g].Mask[:L]
		if pooled[g] == nil {
			if q.Var.NodeAttention {
				children := make([][]bool, L)
				for i := 0; i < L; i++ {
					children[i] = plans[g].Children[i][:L]
				}
				qm := tp.MatMul(h, q.wq)
				km := tp.MatMul(h, q.wk)
				scores := tp.Scale(tp.MatMulTransB(qm, km), scale)
				attn := tp.SoftmaxRowsMask2D(scores, children)
				attended := tp.MatMul(attn, h)
				pooled[g] = tp.MeanRowsMasked(tp.Add(attended, h), mask)
			} else {
				pooled[g] = tp.MeanRowsMasked(h, mask)
			}
		}

		parts := []*tensor.Matrix32{pooled[g]}
		if q.Var.ResourceAttention {
			rv := tp.NewMatrix(1, len(s.Resource))
			for j, v := range s.Resource {
				rv.Data[j] = float32(v)
			}
			qr := tp.MatMul(rv, q.wr) // 1×K
			if keys[g] == nil {
				keys[g] = tp.MatMul(h, q.wrk)
			}
			scores := tp.Scale(tp.MatMulTransB(qr, keys[g]), scale) // 1×L
			battn := tp.SoftmaxRows(scores, mask)
			parts = append(parts, tp.MatMul(battn, h)) // 1×Hidden
		}
		sv := tp.NewMatrix(1, len(s.Stats))
		for j, v := range s.Stats {
			sv.Data[j] = float32(v)
		}
		parts = append(parts, sv)
		feats[b] = tp.ConcatCols(parts...)
	}
	stopAttn()
	defer sp.Stage("dense")()
	return q.head.Forward(tp, tp.ConcatRows(feats...))
}

// Predict returns the estimated cost in seconds for each sample, using
// the default data-parallel settings.
func (q *QModel) Predict(samples []*encode.Sample) []float64 {
	return q.PredictWith(samples, PredictOpts{})
}

// PredictWith is Model.PredictWith on the reduced-precision path.
func (q *QModel) PredictWith(samples []*encode.Sample, opt PredictOpts) []float64 {
	out, _ := q.PredictCtx(context.Background(), samples, opt)
	return out
}

// PredictCtx is Model.PredictCtx on the reduced-precision path: same
// chunking, bucketing, worker pool, and cancellation contract.
func (q *QModel) PredictCtx(ctx context.Context, samples []*encode.Sample, opt PredictOpts) ([]float64, error) {
	return q.predictCtx32(ctx, samples, opt, nil)
}

// PredictSpan scores samples serially while accumulating the per-stage
// breakdown into sp (embed → lstm/conv → attention → dense → decode).
func (q *QModel) PredictSpan(samples []*encode.Sample, sp *telemetry.Span) []float64 {
	out, _ := q.predictCtx32(context.Background(), samples, PredictOpts{Workers: 1}, sp)
	return out
}

// PredictTraced is PredictSpan with the span created and ended; the span
// name carries the precision so quantized traces are distinguishable.
func (q *QModel) PredictTraced(samples []*encode.Sample) ([]float64, *telemetry.Span) {
	sp := telemetry.StartSpan("predict[" + q.Precision.String() + "]")
	out := q.PredictSpan(samples, sp)
	sp.End()
	return out, sp
}

// predictCtx32 mirrors Model.predictCtx chunk for chunk, swapping the
// float64 tape for the pooled f32 tape.
func (q *QModel) predictCtx32(ctx context.Context, samples []*encode.Sample, opt PredictOpts, sp *telemetry.Span) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	out := make([]float64, len(samples))
	chunk := opt.ChunkSize
	if chunk <= 0 {
		chunk = 64
	}
	scored, order, chunks := scheduleSamples(samples, chunk, opt.NoBucket, q.instr)
	nChunks := len(chunks)
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nChunks {
		workers = nChunks
	}

	score := func(tp *autodiff.Tape32, k int) {
		c := chunks[k]
		tp.Reset()
		pred := q.forward32(tp, scored[c.lo:c.hi], sp)
		defer sp.Stage("decode")()
		for i := c.lo; i < c.hi; i++ {
			dst := i
			if order != nil {
				dst = order[i]
			}
			out[dst] = invTransform(float64(pred.At(i-c.lo, 0)))
		}
	}

	if workers <= 1 {
		tp := q.tapes.get()
		defer q.tapes.put(tp)
		for k := 0; k < nChunks; k++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			score(tp, k)
		}
		q.instr.observePredict(len(samples), time.Since(start))
		return out, nil
	}
	var next atomic.Int64
	var aborted atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tp := q.tapes.get()
			defer q.tapes.put(tp)
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
	q.instr.observePredict(len(samples), time.Since(start))
	return out, nil
}

// GateQuantile is the order statistic the accuracy gate examines: the
// 0.9-quantile of the per-sample q-error delta between the quantized and
// float64 predictions. A tail quantile (rather than the mean) is what
// keeps one catastrophically mis-scaled row from hiding behind a thousand
// good ones.
const GateQuantile = 0.9

// QuantGateError is the typed refusal returned by VerifyQuantized when a
// quantized model disagrees with its float64 reference by more than the
// configured bound. Callers match it with errors.As and fall back to the
// f64 path.
type QuantGateError struct {
	Precision Precision
	Quantile  float64 // order statistic examined (GateQuantile)
	Delta     float64 // observed q-error delta at that quantile
	Bound     float64 // configured maximum
	N         int     // evaluation samples
}

func (e *QuantGateError) Error() string {
	return fmt.Sprintf("core: quantization gate refused %s: q-error delta p%.0f = %.4f > bound %.4f (over %d samples)",
		e.Precision, e.Quantile*100, e.Delta, e.Bound, e.N)
}

// VerifyQuantized is the accuracy gate: it scores samples through both
// the float64 model and its quantized snapshot, computes the per-sample
// q-error delta distribution (metrics.QErrorDeltas, with the f64
// predictions as reference — no labels needed), and refuses with a
// *QuantGateError when the GateQuantile delta exceeds maxQDelta. A nil
// return admits qm for serving.
func VerifyQuantized(m *Model, qm *QModel, samples []*encode.Sample, maxQDelta float64) error {
	if m == nil || qm == nil {
		return errors.New("core: VerifyQuantized needs both the f64 model and the quantized snapshot")
	}
	if len(samples) == 0 {
		return errors.New("core: VerifyQuantized needs at least one evaluation sample")
	}
	if maxQDelta < 0 {
		return fmt.Errorf("core: VerifyQuantized bound %g must be non-negative", maxQDelta)
	}
	ref := m.Predict(samples)
	got := qm.Predict(samples)
	delta := metrics.Quantile(metrics.QErrorDeltas(ref, got), GateQuantile)
	if delta > maxQDelta {
		return &QuantGateError{
			Precision: qm.Precision,
			Quantile:  GateQuantile,
			Delta:     delta,
			Bound:     maxQDelta,
			N:         len(samples),
		}
	}
	return nil
}
