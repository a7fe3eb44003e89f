package autodiff

import (
	"fmt"
	"math"

	"raal/internal/tensor"
)

// Tape32 is the reduced-precision twin of an inference-mode Tape: the
// same bump-pointer arena discipline (slabs of values + matrix headers,
// cursor-rewind Reset, pointer-identical warm replay) parameterized over
// float32 storage. It is forward-only — quantized models are never
// trained, so there are no records, no Vars, and no Backward; every op
// computes immediately and returns an arena-backed *tensor.Matrix32.
//
// The semantics of each op mirror its float64 Tape counterpart exactly
// (same masks, same padding, same accumulation order), so the only
// differences between a float64 and a float32 forward pass are where each
// intermediate rounds and the transcendentals, which run through the
// all-f32 fast kernels (tensor.Exp32/Tanh32/Sigmoid32 — a few ulps from
// the rounded float64 result). The tape also carries inference-only
// fusions the float64 tape cannot have (LSTMCell): no backward pass means
// intermediates need not be materialized.
//
// A Tape32 is not safe for concurrent use; run one per goroutine.
type Tape32 struct {
	data    [][]float32 // value slabs
	bi, off int         // cursor: current slab, next free element

	hdrs [][]tensor.Matrix32 // matrix-header slabs
	nHdr int                 // headers in use
}

// arenaBlockFloats32 is the size of one value slab: 128 KiB of float32.
const arenaBlockFloats32 = 1 << 15

// NewTape32 returns an empty forward-only float32 tape.
func NewTape32() *Tape32 { return &Tape32{} }

// Reset rewinds the arena cursor: every matrix handed out since the last
// Reset is reclaimed, and an identical op sequence replayed afterwards
// reuses the same slabs — zero steady-state allocations, exactly like the
// float64 tape's Reset.
func (t *Tape32) Reset() { t.bi, t.off, t.nHdr = 0, 0, 0 }

// slab returns n contiguous float32s with unspecified contents.
func (t *Tape32) slab(n int) []float32 {
	for {
		if t.bi == len(t.data) {
			sz := arenaBlockFloats32
			if n > sz {
				sz = n
			}
			t.data = append(t.data, make([]float32, sz))
		}
		if blk := t.data[t.bi]; t.off+n <= len(blk) {
			s := blk[t.off : t.off+n : t.off+n]
			t.off += n
			return s
		}
		t.bi++
		t.off = 0
	}
}

// get returns a rows×cols arena matrix with unspecified contents; the
// caller must fully overwrite (or Zero) it.
func (t *Tape32) get(rows, cols int) *tensor.Matrix32 {
	bi, off := t.nHdr/slabBlock, t.nHdr%slabBlock
	if bi == len(t.hdrs) {
		t.hdrs = append(t.hdrs, make([]tensor.Matrix32, slabBlock))
	}
	t.nHdr++
	m := &t.hdrs[bi][off]
	m.Rows, m.Cols = rows, cols
	m.Data = t.slab(rows * cols)
	return m
}

// NewMatrix returns a zeroed rows×cols matrix on loan from the arena;
// valid until the next Reset.
func (t *Tape32) NewMatrix(rows, cols int) *tensor.Matrix32 {
	m := t.get(rows, cols)
	m.Zero()
	return m
}

// MatMul returns a×b.
func (t *Tape32) MatMul(a, b *tensor.Matrix32) *tensor.Matrix32 {
	out := t.get(a.Rows, b.Cols)
	tensor.MatMul32Into(out, a, b)
	return out
}

// MatMulTransB returns a×bᵀ without materializing bᵀ.
func (t *Tape32) MatMulTransB(a, b *tensor.Matrix32) *tensor.Matrix32 {
	out := t.get(a.Rows, b.Rows)
	tensor.MatMulTransB32Into(out, a, b)
	return out
}

// Add returns a+b elementwise.
func (t *Tape32) Add(a, b *tensor.Matrix32) *tensor.Matrix32 {
	out := t.get(a.Rows, a.Cols)
	tensor.Add32Into(out, a, b)
	return out
}

// Mul returns the Hadamard product a∘b.
func (t *Tape32) Mul(a, b *tensor.Matrix32) *tensor.Matrix32 {
	out := t.get(a.Rows, a.Cols)
	tensor.Mul32Into(out, a, b)
	return out
}

// Scale returns s·a.
func (t *Tape32) Scale(a *tensor.Matrix32, s float32) *tensor.Matrix32 {
	out := t.get(a.Rows, a.Cols)
	tensor.Scale32Into(out, a, s)
	return out
}

// Tanh returns tanh(a) elementwise.
func (t *Tape32) Tanh(a *tensor.Matrix32) *tensor.Matrix32 {
	out := t.get(a.Rows, a.Cols)
	tensor.Tanh32Into(out, a)
	return out
}

// AddRowAct returns act(m + r broadcast over rows) through the fused
// kernel — the f32 form of the Tape.AddRowApply path every dense layer
// and LSTM gate runs.
func (t *Tape32) AddRowAct(m, r *tensor.Matrix32, act tensor.Act) *tensor.Matrix32 {
	out := t.get(m.Rows, m.Cols)
	tensor.AddRowAct32Into(out, m, r, act)
	return out
}

// MatMulAddRows returns rows [i, i+a.Rows) of big plus a×b — the fused
// form of AddRowsAt(big, i, MatMul(a, b)) that the inference LSTM
// recurrence runs, saving one full intermediate write+read per step.
func (t *Tape32) MatMulAddRows(big *tensor.Matrix32, i int, a, b *tensor.Matrix32) *tensor.Matrix32 {
	rows, cols := a.Rows, b.Cols
	if big.Cols != cols {
		panic(fmt.Sprintf("autodiff: MatMulAddRows col mismatch %d != %d", big.Cols, cols))
	}
	if i < 0 || i+rows > big.Rows {
		panic(fmt.Sprintf("autodiff: MatMulAddRows rows [%d,%d) out of %d", i, i+rows, big.Rows))
	}
	out := t.get(rows, cols)
	base := &tensor.Matrix32{Rows: rows, Cols: cols, Data: big.Data[i*cols : (i+rows)*cols]}
	tensor.MatMulAdd32Into(out, base, a, b)
	return out
}

// LSTMCell runs one fused LSTM cell step: z is the batch×4h gate
// pre-activation, b the packed gate bias, sc the cell state (updated in
// place); the returned batch×h matrix is the new hidden state. See
// tensor.LSTMCell32Into for the fusion rationale.
func (t *Tape32) LSTMCell(z, b, sc *tensor.Matrix32) *tensor.Matrix32 {
	sh := t.get(sc.Rows, sc.Cols)
	tensor.LSTMCell32Into(sh, sc, z, b)
	return sh
}

// SliceCols extracts columns [lo,hi) of a as a copy.
func (t *Tape32) SliceCols(a *tensor.Matrix32, lo, hi int) *tensor.Matrix32 {
	if lo < 0 || hi > a.Cols || lo > hi {
		panic(fmt.Sprintf("autodiff: SliceCols [%d,%d) out of %d cols", lo, hi, a.Cols))
	}
	out := t.get(a.Rows, hi-lo)
	for i := 0; i < a.Rows; i++ {
		copy(out.Row(i), a.Row(i)[lo:hi])
	}
	return out
}

// AddRowsAt returns rows [i, i+small.Rows) of big plus small, elementwise
// — the stacked-LSTM recurrence step (see Tape.AddRowsAt).
func (t *Tape32) AddRowsAt(big *tensor.Matrix32, i int, small *tensor.Matrix32) *tensor.Matrix32 {
	rows, cols := small.Rows, small.Cols
	if big.Cols != cols {
		panic(fmt.Sprintf("autodiff: AddRowsAt col mismatch %d != %d", big.Cols, cols))
	}
	if i < 0 || i+rows > big.Rows {
		panic(fmt.Sprintf("autodiff: AddRowsAt rows [%d,%d) out of %d", i, i+rows, big.Rows))
	}
	out := t.get(rows, cols)
	win := big.Data[i*cols : (i+rows)*cols]
	for k, v := range win {
		out.Data[k] = v + small.Data[k]
	}
	return out
}

// GatherRows extracts row i of every input and stacks the copies into a
// len(vs)×cols matrix.
func (t *Tape32) GatherRows(vs []*tensor.Matrix32, i int) *tensor.Matrix32 {
	if len(vs) == 0 {
		return t.get(0, 0)
	}
	cols := vs[0].Cols
	out := t.get(len(vs), cols)
	for k, v := range vs {
		if v.Cols != cols {
			panic(fmt.Sprintf("autodiff: GatherRows col mismatch %d != %d", v.Cols, cols))
		}
		if i < 0 || i >= v.Rows {
			panic(fmt.Sprintf("autodiff: GatherRows(%d) out of %d rows", i, v.Rows))
		}
		copy(out.Row(k), v.Row(i))
	}
	return out
}

// ConcatCols concatenates matrices horizontally.
func (t *Tape32) ConcatCols(vs ...*tensor.Matrix32) *tensor.Matrix32 {
	rows, cols := 0, 0
	if len(vs) > 0 {
		rows = vs[0].Rows
		for _, v := range vs {
			if v.Rows != rows {
				panic(fmt.Sprintf("tensor: concatCols row mismatch %d != %d", v.Rows, rows))
			}
			cols += v.Cols
		}
	}
	out := t.get(rows, cols)
	for i := 0; i < rows; i++ {
		off := 0
		orow := out.Row(i)
		for _, v := range vs {
			copy(orow[off:off+v.Cols], v.Row(i))
			off += v.Cols
		}
	}
	return out
}

// ConcatRows concatenates matrices vertically.
func (t *Tape32) ConcatRows(vs ...*tensor.Matrix32) *tensor.Matrix32 {
	rows, cols := 0, 0
	if len(vs) > 0 {
		cols = vs[0].Cols
		for _, v := range vs {
			if v.Cols != cols {
				panic(fmt.Sprintf("tensor: concatRows col mismatch %d != %d", v.Cols, cols))
			}
			rows += v.Rows
		}
	}
	out := t.get(rows, cols)
	off := 0
	for _, v := range vs {
		copy(out.Data[off:off+len(v.Data)], v.Data)
		off += len(v.Data)
	}
	return out
}

// softmaxRow32 fills outRow with the masked softmax of in: masked-out
// columns get probability exactly 0, a fully masked row becomes all
// zeros. exp evaluates through the all-f32 fast kernel; the sum
// accumulates in f32 in ascending column order (deterministic — these
// ops never fan out).
func softmaxRow32(in, outRow []float32, masked func(j int) bool) {
	maxv := float32(math.Inf(-1))
	any := false
	for j, x := range in {
		if masked(j) && (!any || x > maxv) {
			maxv = x
			any = true
		}
	}
	if !any {
		for j := range outRow {
			outRow[j] = 0
		}
		return
	}
	var sum float32
	for j, x := range in {
		if masked(j) {
			e := tensor.Exp32(x - maxv)
			outRow[j] = e
			sum += e
		} else {
			outRow[j] = 0
		}
	}
	for j := range outRow {
		outRow[j] /= sum
	}
}

// SoftmaxRows applies a row-wise softmax; mask (nil = all true) selects
// which columns may receive probability. Same semantics as
// Tape.SoftmaxRows.
func (t *Tape32) SoftmaxRows(a *tensor.Matrix32, mask []bool) *tensor.Matrix32 {
	if mask != nil && len(mask) != a.Cols {
		panic(fmt.Sprintf("autodiff: softmax mask length %d != cols %d", len(mask), a.Cols))
	}
	out := t.get(a.Rows, a.Cols)
	sel := func(j int) bool { return mask == nil || mask[j] }
	for i := 0; i < a.Rows; i++ {
		softmaxRow32(a.Row(i), out.Row(i), sel)
	}
	return out
}

// SoftmaxRowsMask2D applies a row-wise softmax with an independent column
// mask per row. Same semantics as Tape.SoftmaxRowsMask2D.
func (t *Tape32) SoftmaxRowsMask2D(a *tensor.Matrix32, mask [][]bool) *tensor.Matrix32 {
	if len(mask) != a.Rows {
		panic(fmt.Sprintf("autodiff: 2D softmax mask rows %d != %d", len(mask), a.Rows))
	}
	out := t.get(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		if len(mask[i]) != a.Cols {
			panic(fmt.Sprintf("autodiff: 2D softmax mask row %d has %d cols, want %d", i, len(mask[i]), a.Cols))
		}
		row := mask[i]
		softmaxRow32(a.Row(i), out.Row(i), func(j int) bool { return row[j] })
	}
	return out
}

// MeanRowsMasked averages the rows of a whose mask entry is true into a
// 1×cols matrix (all zeros when nothing is selected).
func (t *Tape32) MeanRowsMasked(a *tensor.Matrix32, mask []bool) *tensor.Matrix32 {
	if len(mask) != a.Rows {
		panic(fmt.Sprintf("autodiff: mean mask length %d != rows %d", len(mask), a.Rows))
	}
	n := 0
	for _, m := range mask {
		if m {
			n++
		}
	}
	out := t.NewMatrix(1, a.Cols)
	if n == 0 {
		return out
	}
	inv := float32(n)
	for i, m := range mask {
		if !m {
			continue
		}
		row := a.Row(i)
		for j, x := range row {
			out.Data[j] += x / inv
		}
	}
	return out
}

// Im2ColRows materializes the width-row neighborhood of every row of x
// with "same" zero padding, as one rows×(width·cols) matrix. Same
// semantics as Tape.Im2ColRows.
func (t *Tape32) Im2ColRows(x *tensor.Matrix32, width int) *tensor.Matrix32 {
	if width < 1 || width%2 == 0 {
		panic(fmt.Sprintf("autodiff: Im2ColRows width %d must be odd and positive", width))
	}
	rows, cols := x.Rows, x.Cols
	half := width / 2
	out := t.get(rows, width*cols)
	for p := 0; p < rows; p++ {
		orow := out.Row(p)
		for k := 0; k < width; k++ {
			dst := orow[k*cols : (k+1)*cols]
			if src := p + k - half; src >= 0 && src < rows {
				copy(dst, x.Row(src))
			} else {
				for j := range dst {
					dst[j] = 0
				}
			}
		}
	}
	return out
}
