package nn

import (
	"raal/internal/autodiff"
	"raal/internal/tensor"
)

// This file holds the inference-only float32 snapshots of the trainable
// layers. Each is built post-training from its float64 counterpart by
// narrowing every weight to float32. The snapshots run on
// autodiff.Tape32 and have no parameters, no gradients, and no
// serialization — they are re-derived from the float64 model whenever one
// is loaded or promoted.

// actToTensor maps the layer Activation enum onto the tensor fused-kernel
// enum. LeakyReLU has no fused form (it carries a slope) and is handled
// out of line by biasAct32.
func actToTensor(a Activation) (tensor.Act, bool) {
	switch a {
	case Linear:
		return tensor.ActNone, true
	case ReLU:
		return tensor.ActReLU, true
	case Tanh:
		return tensor.ActTanh, true
	case Sigmoid:
		return tensor.ActSigmoid, true
	}
	return tensor.ActNone, false
}

// biasAct32 computes act(z + b) through the fused kernel when possible.
func biasAct32(tp *autodiff.Tape32, z, b *tensor.Matrix32, act Activation) *tensor.Matrix32 {
	if ta, ok := actToTensor(act); ok {
		return tp.AddRowAct(z, b, ta)
	}
	// LeakyReLU: fused bias add, then the leak applied in place on the
	// arena matrix (safe: AddRowAct returned a matrix only we hold).
	out := tp.AddRowAct(z, b, tensor.ActNone)
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0.01 * v
		}
	}
	return out
}

// LSTM32 is an inference-only reduced-precision LSTM snapshot.
type LSTM32 struct {
	In, Hidden int
	Wx         *tensor.Matrix32 // in×4h input projection
	Wh         *tensor.Matrix32 // h×4h recurrent weights
	B          *tensor.Matrix32 // 1×4h packed gate bias
}

// NewLSTM32 snapshots a trained LSTM.
func NewLSTM32(l *LSTM) *LSTM32 {
	return &LSTM32{
		In:     l.In,
		Hidden: l.Hidden,
		Wx:     tensor.ToMatrix32(l.Wx.Value()),
		Wh:     tensor.ToMatrix32(l.Wh.Value()),
		B:      tensor.ToMatrix32(l.B.Value()),
	}
}

// ForwardStacked mirrors LSTM.ForwardStacked on the f32 tape: one stacked
// input projection up front, then per step one recurrent matmul and one
// fused cell kernel (Tape32.LSTMCell) in place of the float64 path's
// slice/activation/elementwise chain.
func (l *LSTM32) ForwardStacked(tp *autodiff.Tape32, x *tensor.Matrix32, steps int) []*tensor.Matrix32 {
	if steps == 0 {
		return nil
	}
	h := l.Hidden
	batch := x.Rows / steps
	zx := tp.MatMul(x, l.Wx)
	sh := tp.NewMatrix(batch, h)
	sc := tp.NewMatrix(batch, h)
	hs := make([]*tensor.Matrix32, steps)
	for t := 0; t < steps; t++ {
		z := tp.MatMulAddRows(zx, t*batch, sh, l.Wh)
		sh = tp.LSTMCell(z, l.B, sc)
		hs[t] = sh
	}
	return hs
}

// Dense32 is an inference-only reduced-precision Dense snapshot.
type Dense32 struct {
	W   *tensor.Matrix32
	B   *tensor.Matrix32
	Act Activation
}

// NewDense32 snapshots a trained Dense layer.
func NewDense32(d *Dense) *Dense32 {
	return &Dense32{W: tensor.ToMatrix32(d.W.Value()), B: tensor.ToMatrix32(d.B.Value()), Act: d.Act}
}

// Forward applies the layer to a batch×in input.
func (d *Dense32) Forward(tp *autodiff.Tape32, x *tensor.Matrix32) *tensor.Matrix32 {
	return biasAct32(tp, tp.MatMul(x, d.W), d.B, d.Act)
}

// MLP32 is an inference-only reduced-precision MLP snapshot.
type MLP32 struct {
	Layers []*Dense32
}

// NewMLP32 snapshots a trained MLP.
func NewMLP32(m *MLP) *MLP32 {
	r := &MLP32{Layers: make([]*Dense32, len(m.Layers))}
	for i, l := range m.Layers {
		r.Layers[i] = NewDense32(l)
	}
	return r
}

// Forward applies every layer in order.
func (m *MLP32) Forward(tp *autodiff.Tape32, x *tensor.Matrix32) *tensor.Matrix32 {
	for _, l := range m.Layers {
		x = l.Forward(tp, x)
	}
	return x
}

// Conv32 is an inference-only reduced-precision Conv1D snapshot.
type Conv32 struct {
	In, Filters, Width int
	W                  *tensor.Matrix32
	B                  *tensor.Matrix32
	Act                Activation
}

// NewConv32 snapshots a trained Conv1D.
func NewConv32(c *Conv1D) *Conv32 {
	return &Conv32{
		In:      c.In,
		Filters: c.Filters,
		Width:   c.Width,
		W:       tensor.ToMatrix32(c.W.Value()),
		B:       tensor.ToMatrix32(c.B.Value()),
		Act:     c.Act,
	}
}

// Forward mirrors Conv1D.Forward: Im2ColRows lowering, one matmul, fused
// bias+activation.
func (c *Conv32) Forward(tp *autodiff.Tape32, x *tensor.Matrix32) *tensor.Matrix32 {
	cols := tp.Im2ColRows(x, c.Width)
	return biasAct32(tp, tp.MatMul(cols, c.W), c.B, c.Act)
}
