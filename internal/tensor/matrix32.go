package tensor

import (
	"fmt"
	"sync/atomic"
)

// This file is the reduced-precision mirror of matrix.go + kernels.go:
// dense float32 matrices, the blocked/parallel matmul kernels, the fused
// bias+activation pass, and the fused LSTM cell. The inference-only f32
// model (core.QModel) runs entirely on these kernels.
//
// Determinism contract: identical to the float64 kernels, *within* f32 —
// every output element is accumulated in ascending k with zero operands
// skipped, by the same per-element loop regardless of kernel path or
// worker count, so results are bit-identical across SetMatMulWorkers
// settings. No contract is made between f32 and f64 results; that gap is
// what the accuracy gate (core.VerifyQuantized) measures.

// Matrix32 is a dense, row-major float32 matrix.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32
}

// allocCount32 mirrors allocCount for the reduced-precision path: the
// quantized-inference regression tests pin the warm f32 predict path to a
// zero delta of this counter.
var allocCount32 atomic.Uint64

// Allocs32 returns the number of float32 matrices allocated by New32
// since process start. The counter only ever increases; callers compare
// deltas.
func Allocs32() uint64 { return allocCount32.Load() }

// New32 returns a zero-initialized rows×cols float32 matrix.
func New32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	allocCount32.Add(1)
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// ToMatrix32 narrows a float64 matrix to float32. This is the post-training
// weight conversion: each element independently rounds to nearest-even.
func ToMatrix32(m *Matrix) *Matrix32 {
	out := New32(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// ToMatrix widens m back to float64 (exact: every float32 is a float64).
func (m *Matrix32) ToMatrix() *Matrix {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float64(v)
	}
	return out
}

// At returns the element at row i, column j.
func (m *Matrix32) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix32) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice sharing the matrix's backing array.
func (m *Matrix32) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix32) Clone() *Matrix32 {
	c := New32(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element of m to zero.
func (m *Matrix32) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix32) SameShape(o *Matrix32) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

func sameData32(a, b *Matrix32) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

func mustNotAlias32(op string, out, a, b *Matrix32) {
	if sameData32(out, a) || sameData32(out, b) {
		panic(fmt.Sprintf("tensor: %s out must not alias an input", op))
	}
}

func mustOutShape32(op string, out, want *Matrix32) {
	if !out.SameShape(want) {
		panic(fmt.Sprintf("tensor: %s out shape %dx%d, want %dx%d", op, out.Rows, out.Cols, want.Rows, want.Cols))
	}
}

func mustSameShape32(op string, a, b *Matrix32) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// rowView32 returns the contiguous [lo,hi) row window of m without copying.
func rowView32(m *Matrix32, lo, hi int) *Matrix32 {
	return &Matrix32{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// regPathMaxBFloats32 bounds len(b.Data) for the register-accumulator f32
// matmul path. float32 halves the bytes per element, so twice as many
// elements fit in the same cache budget as regPathMaxBFloats.
const regPathMaxBFloats32 = 1 << 16

// MatMul32Into computes out = a×b, reusing out's storage. out must be
// a.Rows×b.Cols and must not alias a or b. Same dual-kernel structure and
// deterministic range split as MatMulInto; bit-identical across worker
// counts within f32.
func MatMul32Into(out, a, b *Matrix32) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul32 shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul32 out shape %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	mustNotAlias32("matmul32", out, a, b)
	flops := int64(a.Rows) * int64(a.Cols) * int64(b.Cols)
	if w := spanWorkers(a.Rows, flops); w > 1 {
		parallelRanges(a.Rows, w, func(lo, hi int) {
			matMulRows32(rowView32(out, lo, hi), rowView32(a, lo, hi), b)
		})
		return
	}
	matMulRows32(out, a, b)
}

// matMulRows32 is the serial out = a×b float32 kernel over a contiguous
// row range: register (jik) path while b stays cache-resident, streaming
// (ikj) path past that. Per element both accumulate in ascending k with
// a-zeros skipped, so the path choice never shows up in the result.
func matMulRows32(out, a, b *Matrix32) {
	n := b.Cols
	if len(b.Data) <= regPathMaxBFloats32 {
		for i := 0; i < a.Rows; i++ {
			arow := a.Data[i*a.Cols : (i+1)*a.Cols]
			orow := out.Data[i*n : (i+1)*n]
			j := 0
			// 8-wide column blocks: float32 accumulators are cheap in
			// registers, and the wider block halves the slice/branch
			// overhead per multiply. Each output element still accumulates
			// in ascending k with a-zeros skipped, so the block width never
			// shows up in the result.
			for ; j+8 <= n; j += 8 {
				var s0, s1, s2, s3, s4, s5, s6, s7 float32
				idx := j
				for _, av := range arow {
					if av != 0 {
						b8 := b.Data[idx : idx+8 : idx+8]
						s0 += av * b8[0]
						s1 += av * b8[1]
						s2 += av * b8[2]
						s3 += av * b8[3]
						s4 += av * b8[4]
						s5 += av * b8[5]
						s6 += av * b8[6]
						s7 += av * b8[7]
					}
					idx += n
				}
				orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
				orow[j+4], orow[j+5], orow[j+6], orow[j+7] = s4, s5, s6, s7
			}
			for ; j+4 <= n; j += 4 {
				var s0, s1, s2, s3 float32
				idx := j
				for _, av := range arow {
					if av != 0 {
						b4 := b.Data[idx : idx+4 : idx+4]
						s0 += av * b4[0]
						s1 += av * b4[1]
						s2 += av * b4[2]
						s3 += av * b4[3]
					}
					idx += n
				}
				orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
			}
			for ; j < n; j++ {
				var s float32
				idx := j
				for _, av := range arow {
					if av != 0 {
						s += av * b.Data[idx]
					}
					idx += n
				}
				orow[j] = s
			}
		}
		return
	}
	out.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*n : (i+1)*n]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n]
			j := 0
			for ; j+4 <= n; j += 4 {
				b4 := brow[j : j+4 : j+4]
				o4 := orow[j : j+4 : j+4]
				o4[0] += av * b4[0]
				o4[1] += av * b4[1]
				o4[2] += av * b4[2]
				o4[3] += av * b4[3]
			}
			for ; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
}

// MatMulAdd32Into computes out = base + a×b in one pass — one output
// write instead of a matmul write, an add read, and an add write. This is
// the stacked-LSTM recurrence step z = zx[t] + sh·Wh on the inference
// path. out must be a.Rows×b.Cols, base the same shape, and out must not
// alias a or b (out may alias base). Each element accumulates a×b in
// ascending k with a-zeros skipped and adds base at the store, so the
// result is bit-identical to MatMul32Into followed by Add32Into.
func MatMulAdd32Into(out, base, a, b *Matrix32) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmulAdd32 shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulAdd32 out shape %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	mustOutShape32("matmulAdd32", base, out)
	mustNotAlias32("matmulAdd32", out, a, b)
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		brow := base.Data[i*n : (i+1)*n]
		orow := out.Data[i*n : (i+1)*n]
		j := 0
		for ; j+8 <= n; j += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 float32
			idx := j
			for _, av := range arow {
				if av != 0 {
					w8 := b.Data[idx : idx+8 : idx+8]
					s0 += av * w8[0]
					s1 += av * w8[1]
					s2 += av * w8[2]
					s3 += av * w8[3]
					s4 += av * w8[4]
					s5 += av * w8[5]
					s6 += av * w8[6]
					s7 += av * w8[7]
				}
				idx += n
			}
			b8 := brow[j : j+8 : j+8]
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0+b8[0], s1+b8[1], s2+b8[2], s3+b8[3]
			orow[j+4], orow[j+5], orow[j+6], orow[j+7] = s4+b8[4], s5+b8[5], s6+b8[6], s7+b8[7]
		}
		for ; j < n; j++ {
			var s float32
			idx := j
			for _, av := range arow {
				if av != 0 {
					s += av * b.Data[idx]
				}
				idx += n
			}
			orow[j] = s + brow[j]
		}
	}
}

// MatMulTransB32Into computes out = a×bᵀ without materializing bᵀ. out
// must be a.Rows×b.Rows and must not alias a or b.
func MatMulTransB32Into(out, a, b *Matrix32) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulTransB32 shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmulTransB32 out shape %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Rows))
	}
	mustNotAlias32("matmulTransB32", out, a, b)
	flops := int64(a.Rows) * int64(a.Cols) * int64(b.Rows)
	if w := spanWorkers(a.Rows, flops); w > 1 {
		parallelRanges(a.Rows, w, func(lo, hi int) {
			matMulTransBRows32(rowView32(out, lo, hi), rowView32(a, lo, hi), b)
		})
		return
	}
	matMulTransBRows32(out, a, b)
}

func matMulTransBRows32(out, a, b *Matrix32) {
	bc := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*b.Rows : (i+1)*b.Rows]
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			b0 := b.Data[j*bc : (j+1)*bc]
			b1 := b.Data[(j+1)*bc : (j+2)*bc]
			b2 := b.Data[(j+2)*bc : (j+3)*bc]
			b3 := b.Data[(j+3)*bc : (j+4)*bc]
			var s0, s1, s2, s3 float32
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < b.Rows; j++ {
			brow := b.Data[j*bc : (j+1)*bc]
			var s float32
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
}

// Add32Into computes out = a+b elementwise. out may alias a or b.
func Add32Into(out, a, b *Matrix32) {
	mustSameShape32("add32", a, b)
	mustOutShape32("add32", out, a)
	for i, v := range a.Data {
		out.Data[i] = v + b.Data[i]
	}
}

// Mul32Into computes the Hadamard product out = a∘b. out may alias a or b.
func Mul32Into(out, a, b *Matrix32) {
	mustSameShape32("mul32", a, b)
	mustOutShape32("mul32", out, a)
	for i, v := range a.Data {
		out.Data[i] = v * b.Data[i]
	}
}

// Scale32Into computes out = s·m. out may alias m.
func Scale32Into(out, m *Matrix32, s float32) {
	mustOutShape32("scale32", out, m)
	for i, v := range m.Data {
		out.Data[i] = v * s
	}
}

// Tanh32Into computes out = tanh(m) elementwise through the all-f32
// Tanh32 kernel. out may alias m.
func Tanh32Into(out, m *Matrix32) {
	mustOutShape32("tanh32", out, m)
	for i, v := range m.Data {
		out.Data[i] = Tanh32(v)
	}
}

// AddRowAct32Into fuses bias broadcast and activation into one pass:
// out[i][j] = act(m[i][j] + r[j]). The transcendental activations run
// through the all-f32 fast kernels (Sigmoid32/Tanh32) — a few ulps from
// the rounded float64 result, well inside the gate's quantization
// budget, and several times cheaper than converting to float64 and back
// around the math library. out may alias m.
func AddRowAct32Into(out, m, r *Matrix32, act Act) {
	if r.Rows != 1 || r.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: addRowAct32 wants 1x%d, got %dx%d", m.Cols, r.Rows, r.Cols))
	}
	mustOutShape32("addRowAct32", out, m)
	for i := 0; i < m.Rows; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		switch act {
		case ActNone:
			for j, v := range r.Data {
				dst[j] = src[j] + v
			}
		case ActSigmoid:
			for j, v := range r.Data {
				dst[j] = Sigmoid32(src[j] + v)
			}
		case ActTanh:
			for j, v := range r.Data {
				dst[j] = Tanh32(src[j] + v)
			}
		case ActReLU:
			for j, v := range r.Data {
				if x := src[j] + v; x > 0 {
					dst[j] = x
				} else {
					dst[j] = 0
				}
			}
		default:
			panic(fmt.Sprintf("tensor: unknown Act(%d)", act))
		}
	}
}

// LSTMCell32Into applies one fused LSTM cell update. z is the batch×4h
// pre-activation (stacked input projection plus recurrent term) in gate
// order i|f|g|o, b the 1×4h packed gate bias, sc the batch×h cell state
// (updated in place), and sh the batch×h output hidden state:
//
//	i,f,o = σ(z+b)   g = tanh(z+b)
//	sc    = f∘sc + i∘g
//	sh    = o ∘ tanh(sc)
//
// One pass replaces the unfused form's four column slices, four bias+
// activation kernels, and five elementwise ops per step — the inference-
// only f32 path can fuse what the float64 tape must keep separate for the
// backward pass. Elements are independent, so the kernel keeps the
// bit-identical-across-worker-counts contract. sh must not alias z or sc.
func LSTMCell32Into(sh, sc, z, b *Matrix32) {
	h := sc.Cols
	if z.Rows != sc.Rows || z.Cols != 4*h {
		panic(fmt.Sprintf("tensor: lstmCell32 z shape %dx%d, want %dx%d", z.Rows, z.Cols, sc.Rows, 4*h))
	}
	if b.Rows != 1 || b.Cols != 4*h {
		panic(fmt.Sprintf("tensor: lstmCell32 bias shape %dx%d, want 1x%d", b.Rows, b.Cols, 4*h))
	}
	mustOutShape32("lstmCell32", sh, sc)
	if sameData32(sh, z) || sameData32(sh, sc) {
		panic("tensor: lstmCell32 sh must not alias z or sc")
	}
	bi, bf, bg, bo := b.Data[:h], b.Data[h:2*h], b.Data[2*h:3*h], b.Data[3*h:4*h]
	for r := 0; r < z.Rows; r++ {
		zr := z.Row(r)
		zi, zf, zg, zo := zr[:h], zr[h:2*h], zr[2*h:3*h], zr[3*h:4*h]
		scr := sc.Row(r)
		shr := sh.Row(r)
		for j := 0; j < h; j++ {
			i := Sigmoid32(zi[j] + bi[j])
			f := Sigmoid32(zf[j] + bf[j])
			g := Tanh32(zg[j] + bg[j])
			o := Sigmoid32(zo[j] + bo[j])
			c := f*scr[j] + i*g
			scr[j] = c
			shr[j] = o * Tanh32(c)
		}
	}
}
