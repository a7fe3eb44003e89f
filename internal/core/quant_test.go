package core

import (
	"errors"
	"math"
	"testing"

	"raal/internal/encode"
	"raal/internal/metrics"
	"raal/internal/tensor"
)

// trainSmall trains one small model for the quantization tests.
func trainSmall(t *testing.T, v Variant, seed int64) *Model {
	t.Helper()
	m, _, err := Train(synthDataset(160, seed), v, testConfig(), quickTrain())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestQuantizedCloseToFloat64 pins the headline accuracy property: for
// every variant, the f32 snapshot's 0.9-quantile q-error delta against
// the float64 predictions stays within the serving bound, and
// VerifyQuantized admits the snapshot.
func TestQuantizedCloseToFloat64(t *testing.T) {
	eval := synthDataset(64, 99)
	variants := map[string]Variant{"raal": RAAL(), "nelstm": NELSTM(), "nalstm": NALSTM(), "raac": RAAC()}
	for name, v := range variants {
		m := trainSmall(t, v, 7)
		ref := m.Predict(eval)
		qm := m.Quantize()
		got := qm.Predict(eval)
		delta := metrics.Quantile(metrics.QErrorDeltas(ref, got), GateQuantile)
		if delta > 0.05 {
			t.Fatalf("%s: p90 q-error delta %.4f > 0.05", name, delta)
		}
		if err := VerifyQuantized(m, qm, eval, 0.05); err != nil {
			t.Fatalf("%s: gate refused a good snapshot: %v", name, err)
		}
	}
}

// TestQuantizedPredictDeterministic pins the f32 determinism contract:
// predictions are bit-identical across worker counts, chunk sizes, and
// bucketing settings.
func TestQuantizedPredictDeterministic(t *testing.T) {
	qm := trainSmall(t, RAAL(), 11).Quantize()
	eval := synthDataset(80, 101)
	want := qm.PredictWith(eval, PredictOpts{Workers: 1, ChunkSize: 7, NoBucket: true})
	opts := []PredictOpts{
		{Workers: 1, ChunkSize: 80},
		{Workers: 2, ChunkSize: 16},
		{Workers: 4, ChunkSize: 5},
		{Workers: 3, ChunkSize: 11, NoBucket: true},
	}
	for _, opt := range opts {
		got := qm.PredictWith(eval, opt)
		for i, v := range got {
			if v != want[i] {
				t.Fatalf("opts %+v: sample %d = %v, want %v (bit-identical)", opt, i, v, want[i])
			}
		}
	}
}

// TestQuantizedWarmPredictZeroAllocs pins the pooled-tape arena contract
// on the reduced-precision path: after warmup, repeated serial predicts
// allocate no f32 matrices.
func TestQuantizedWarmPredictZeroAllocs(t *testing.T) {
	qm := trainSmall(t, RAAL(), 13).Quantize()
	eval := synthDataset(32, 103)
	opt := PredictOpts{Workers: 1}
	qm.PredictWith(eval, opt) // warm the tape pool
	before := tensor.Allocs32()
	for i := 0; i < 3; i++ {
		qm.PredictWith(eval, opt)
	}
	if got := tensor.Allocs32() - before; got != 0 {
		t.Fatalf("warm quantized predict allocated %d f32 matrices, want 0", got)
	}
}

// TestQuantGateRefusal deliberately violates the bound and requires the
// typed refusal: a corrupted snapshot must come back as *QuantGateError
// with the quantile filled in.
func TestQuantGateRefusal(t *testing.T) {
	m := trainSmall(t, RAAL(), 17)
	qm := m.Quantize()
	// Sabotage the output layer bias: every prediction shifts, so the
	// q-error delta blows through any reasonable bound.
	out := qm.head.Layers[len(qm.head.Layers)-1]
	for i := range out.B.Data {
		out.B.Data[i] += 2
	}
	eval := synthDataset(48, 107)
	err := VerifyQuantized(m, qm, eval, 0.05)
	var gateErr *QuantGateError
	if !errors.As(err, &gateErr) {
		t.Fatalf("gate returned %v, want *QuantGateError", err)
	}
	if gateErr.Quantile != GateQuantile || gateErr.Delta <= gateErr.Bound {
		t.Fatalf("gate error fields wrong: %+v", gateErr)
	}
}

// TestQuantGateRefusesNonFinite pins the gate's non-finite guard: a
// NaN or ±Inf prediction is refused even when every finite row agrees,
// because its NaN q-error delta would otherwise sort below the
// GateQuantile and compare false against the bound.
func TestQuantGateRefusesNonFinite(t *testing.T) {
	m := trainSmall(t, RAAL(), 19)
	cases := []struct {
		name      string
		sabotage  func(qm *QModel, eval []*encode.Sample)
		nonFinite int
	}{
		// Every f32 prediction is NaN.
		{"nan-bias", func(qm *QModel, _ []*encode.Sample) {
			out := qm.head.Layers[len(qm.head.Layers)-1]
			for i := range out.B.Data {
				out.B.Data[i] = float32(math.NaN())
			}
		}, 48},
		// One sample's stats scaled far past the training range: its
		// log-cost overflows expm1 to +Inf in both precisions, while the
		// other 47 rows stay close to the f64 reference.
		{"one-row", func(_ *QModel, eval []*encode.Sample) {
			s := *eval[24]
			s.Stats = append([]float64(nil), s.Stats...)
			for i := range s.Stats {
				s.Stats[i] *= 1e6
			}
			eval[24] = &s
		}, 2},
	}
	for _, c := range cases {
		qm := m.Quantize()
		eval := synthDataset(48, 109)
		c.sabotage(qm, eval)
		err := VerifyQuantized(m, qm, eval, 0.05)
		var gateErr *QuantGateError
		if !errors.As(err, &gateErr) {
			t.Fatalf("%s: gate returned %v, want *QuantGateError", c.name, err)
		}
		if gateErr.NonFinite != c.nonFinite || gateErr.Delta <= gateErr.Bound {
			t.Fatalf("%s: gate error fields wrong (want %d non-finite): %+v", c.name, c.nonFinite, gateErr)
		}
	}
}

// TestParsePrecision round-trips the CLI spellings and rejects the
// removed int8 precision.
func TestParsePrecision(t *testing.T) {
	for _, p := range []Precision{PrecisionF64, PrecisionF32} {
		got, err := ParsePrecision(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePrecision(%q) = %v, %v", p.String(), got, err)
		}
	}
	for _, s := range []string{"f16", "int8"} {
		if _, err := ParsePrecision(s); err == nil {
			t.Fatalf("ParsePrecision(%s) succeeded, want error", s)
		}
	}
}

// BenchmarkPredictQuant compares warm batch inference across precisions
// at the BenchmarkPredict shape (512 samples, chunk 32, serial scorer).
func BenchmarkPredictQuant(b *testing.B) {
	samples := benchSamples(512)
	tc := quickTrain()
	tc.Epochs = 1
	m, _, err := Train(samples[:128], RAAL(), testConfig(), tc)
	if err != nil {
		b.Fatal(err)
	}
	opt := PredictOpts{Workers: 1, ChunkSize: 32}
	b.Run("f64", func(b *testing.B) {
		m.PredictWith(samples, opt)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.PredictWith(samples, opt)
		}
	})
	qm := m.Quantize()
	b.Run("f32", func(b *testing.B) {
		qm.PredictWith(samples, opt)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			qm.PredictWith(samples, opt)
		}
	})
}
