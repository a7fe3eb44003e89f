package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func randMat32(rng *rand.Rand, rows, cols int) *Matrix32 {
	m := New32(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

func mustEqual32(t *testing.T, got, want *Matrix32, label string) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if v != want.Data[i] {
			t.Fatalf("%s: element %d = %g, want %g (bit-identical)", label, i, v, want.Data[i])
		}
	}
}

// TestMatMul32MatchesFloat64 pins the f32 kernels to the f64 reference
// within accumulation tolerance: same inputs narrowed to f32 must produce
// the same products up to rounding.
func TestMatMul32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randMat(rng, 9, 17)
	b := randMat(rng, 17, 13)
	want := MatMul(a, b)

	a32, b32 := ToMatrix32(a), ToMatrix32(b)
	got := New32(9, 13)
	MatMul32Into(got, a32, b32)
	for i, v := range got.Data {
		if math.Abs(float64(v)-want.Data[i]) > 1e-4 {
			t.Fatalf("element %d: f32 %g vs f64 %g", i, v, want.Data[i])
		}
	}

	// a×bᵀ through the dedicated kernel.
	bt32 := ToMatrix32(b.Transpose())
	gotTB := New32(9, 13)
	MatMulTransB32Into(gotTB, a32, bt32)
	for i, v := range gotTB.Data {
		if math.Abs(float64(v)-want.Data[i]) > 1e-4 {
			t.Fatalf("transB element %d: f32 %g vs f64 %g", i, v, want.Data[i])
		}
	}
}

// TestParallelMatMul32BitIdenticalAcrossWorkers is the f32 version of the
// deterministic-split property test: every worker count must reproduce the
// serial result bit for bit, across both kernel paths and ragged splits.
func TestParallelMatMul32BitIdenticalAcrossWorkers(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(31))
	shapes := [][3]int{
		{1, 1, 1},
		{2, 3, 5},
		{7, 9, 13},
		{33, 17, 41},
		{12, 64, 1280}, // len(b.Data) = 81920 > regPathMaxBFloats32: streaming path
	}
	workers := []int{2, 3, 4, 7}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := randMat32(rng, m, k)
		b := randMat32(rng, k, n)
		bt := New32(n, k)
		for i := 0; i < k; i++ {
			for j := 0; j < n; j++ {
				bt.Set(j, i, b.At(i, j))
			}
		}

		SetMatMulWorkers(1)
		want := New32(m, n)
		MatMul32Into(want, a, b)
		wantTB := New32(m, n)
		MatMulTransB32Into(wantTB, a, bt)

		for _, w := range workers {
			SetMatMulWorkers(w)
			got := randMat32(rng, m, n) // dirty output: kernels must overwrite fully
			MatMul32Into(got, a, b)
			mustEqual32(t, got, want, "MatMul32Into parallel")

			gotTB := randMat32(rng, m, n)
			MatMulTransB32Into(gotTB, a, bt)
			mustEqual32(t, gotTB, wantTB, "MatMulTransB32Into parallel")
		}
	}
}

// TestMatrix32Conversions pins narrowing/widening and the alias guards.
func TestMatrix32Conversions(t *testing.T) {
	m := FromRows([][]float64{{1.5, -2.25}, {0, 3}})
	m32 := ToMatrix32(m)
	back := m32.ToMatrix()
	for i, v := range m.Data {
		if back.Data[i] != v { // all values exactly representable in f32
			t.Fatalf("round trip element %d: %g != %g", i, back.Data[i], v)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("aliased matmul32 output did not panic")
		}
	}()
	MatMul32Into(m32, m32, m32)
}
