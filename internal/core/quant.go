package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"raal/internal/autodiff"
	"raal/internal/encode"
	"raal/internal/metrics"
	"raal/internal/nn"
	"raal/internal/telemetry"
	"raal/internal/tensor"
)

// Precision selects the numeric format an inference path runs in. Models
// always train in PrecisionF64; PrecisionF32 is a post-training
// inference-only conversion (see Model.Quantize) admitted through the
// accuracy gate (VerifyQuantized).
type Precision uint8

// Supported precisions.
const (
	PrecisionF64 Precision = iota // float64 reference path (the Model itself)
	PrecisionF32                  // all weights and arithmetic in float32
)

func (p Precision) String() string {
	switch p {
	case PrecisionF64:
		return "f64"
	case PrecisionF32:
		return "f32"
	default:
		return fmt.Sprintf("Precision(%d)", uint8(p))
	}
}

// ParsePrecision maps the CLI spelling ("f64", "f32") back to a
// Precision.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64":
		return PrecisionF64, nil
	case "f32":
		return PrecisionF32, nil
	}
	return 0, fmt.Errorf("core: unknown precision %q (have f64, f32)", s)
}

// QModel is an inference-only float32 snapshot of a Model: the same
// architecture and forward graph, with every weight and intermediate
// narrowed to float32. It is produced by Model.Quantize, never trained,
// and never serialized — re-quantize from the float64 champion instead.
//
// Predictions are deterministic: bit-identical across worker counts,
// chunk sizes, and bucketing settings, by the same argument as the
// float64 path (tensor kernel contract + per-sample independence). No
// bit relationship with the float64 model's output is promised; that gap
// is what VerifyQuantized bounds.
type QModel struct {
	Var Variant
	Cfg Config

	instr *Instrumentation

	lstm *nn.LSTM32
	conv *nn.Conv32

	wq, wk *tensor.Matrix32 // node-aware attention projections (Hidden×K)
	wr     *tensor.Matrix32 // resource query projection (ResDim×K)
	wrk    *tensor.Matrix32 // resource-side node key projection (Hidden×K)

	head *nn.MLP32

	tapes tapePool[*autodiff.Tape32]
}

// Quantize converts the trained model to an inference-only float32
// snapshot. The model itself is untouched and remains the
// training/reference path.
func (m *Model) Quantize() *QModel {
	q := &QModel{Var: m.Var, Cfg: m.Cfg}
	if m.lstm != nil {
		q.lstm = nn.NewLSTM32(m.lstm)
	}
	if m.conv != nil {
		q.conv = nn.NewConv32(m.conv)
	}
	if m.wq != nil {
		q.wq = tensor.ToMatrix32(m.wq.Value())
		q.wk = tensor.ToMatrix32(m.wk.Value())
	}
	if m.wr != nil {
		q.wr = tensor.ToMatrix32(m.wr.Value())
		q.wrk = tensor.ToMatrix32(m.wrk.Value())
	}
	q.head = nn.NewMLP32(m.head)
	return q
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

// predictRows mirrors Model.forward on the f32 tape: same graph, same
// masks, same unroll truncation, same plan sharing (see planGroups), same
// stage boundaries (embed → lstm/conv → attention → dense), with every
// intermediate stored in f32. It returns the chunk's log-scale
// predictions, one per sample.
func (q *QModel) predictRows(tp *autodiff.Tape32, batch []*encode.Sample, sp *telemetry.Span) []float32 {
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
	return q.head.Forward(tp, tp.ConcatRows(feats...)).Data
}

// Predict returns the estimated cost in seconds for each sample, using
// the default data-parallel settings.
func (q *QModel) Predict(samples []*encode.Sample) []float64 {
	return q.PredictWith(samples, PredictOpts{})
}

// PredictWith is Model.PredictWith on the f32 path.
func (q *QModel) PredictWith(samples []*encode.Sample, opt PredictOpts) []float64 {
	out, _ := q.PredictCtx(context.Background(), samples, opt)
	return out
}

// PredictCtx is Model.PredictCtx on the f32 path: same chunking,
// bucketing, worker pool, and cancellation contract.
func (q *QModel) PredictCtx(ctx context.Context, samples []*encode.Sample, opt PredictOpts) ([]float64, error) {
	return scoreChunks(ctx, samples, opt, nil, q.instr, &q.tapes, autodiff.NewTape32, q.predictRows)
}

// PredictSpan scores samples serially while accumulating the per-stage
// breakdown into sp (embed → lstm/conv → attention → dense → decode).
func (q *QModel) PredictSpan(samples []*encode.Sample, sp *telemetry.Span) []float64 {
	out, _ := scoreChunks(context.Background(), samples, PredictOpts{Workers: 1}, sp, q.instr, &q.tapes, autodiff.NewTape32, q.predictRows)
	return out
}

// GateQuantile is the order statistic the accuracy gate examines: the
// 0.9-quantile of the per-sample q-error delta between the quantized and
// float64 predictions. A tail quantile (rather than the mean) is what
// keeps one catastrophically mis-scaled row from hiding behind a thousand
// good ones.
const GateQuantile = 0.9

// QuantGateError is the typed refusal returned by VerifyQuantized when
// the f32 snapshot disagrees with its float64 reference by more than the
// configured bound, or when any gate-set prediction is not finite.
// Callers match it with errors.As and fall back to the f64 path.
type QuantGateError struct {
	Quantile  float64 // order statistic examined (GateQuantile)
	Delta     float64 // observed q-error delta at that quantile; +Inf when NonFinite > 0
	Bound     float64 // configured maximum
	N         int     // evaluation samples
	NonFinite int     // NaN or ±Inf predictions, f64 and f32 combined
}

func (e *QuantGateError) Error() string {
	if e.NonFinite > 0 {
		return fmt.Sprintf("core: quantization gate refused f32: %d non-finite predictions (over %d samples)", e.NonFinite, e.N)
	}
	return fmt.Sprintf("core: quantization gate refused f32: q-error delta p%.0f = %.4f > bound %.4f (over %d samples)",
		e.Quantile*100, e.Delta, e.Bound, e.N)
}

// VerifyQuantized is the accuracy gate: it scores samples through both
// the float64 model and its f32 snapshot, computes the per-sample q-error
// delta distribution (metrics.QErrorDeltas, with the f64 predictions as
// reference — no labels needed), and refuses with a *QuantGateError when
// the GateQuantile delta exceeds maxQDelta or any prediction is NaN or
// ±Inf. A nil return admits qm for serving.
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
	// A non-finite row has a NaN q-error delta, which sorts first and
	// compares false against any bound, so the quantile alone would let up
	// to a tenth of the gate set be NaN: refuse on the first one instead.
	if n := countNonFinite(ref) + countNonFinite(got); n > 0 {
		return &QuantGateError{Quantile: GateQuantile, Delta: math.Inf(1), Bound: maxQDelta, N: len(samples), NonFinite: n}
	}
	delta := metrics.Quantile(metrics.QErrorDeltas(ref, got), GateQuantile)
	if delta > maxQDelta {
		return &QuantGateError{
			Quantile: GateQuantile,
			Delta:    delta,
			Bound:    maxQDelta,
			N:        len(samples),
		}
	}
	return nil
}

func countNonFinite(xs []float64) int {
	n := 0
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			n++
		}
	}
	return n
}
