package main

import (
	"math"
	"testing"
)

func seqSamples(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so tail must sort
	}
	return xs
}

func TestTailReportsHighestPercentileWithTenBeyond(t *testing.T) {
	cases := []struct {
		n       int
		wantPct float64
		wantVal float64
		wantOK  bool
	}{
		{n: 1000, wantPct: 99, wantVal: 990, wantOK: true},
		{n: 5000, wantPct: 99, wantVal: 4950, wantOK: true},
		{n: 400, wantPct: 97.5, wantVal: 390, wantOK: true},
		{n: 999, wantPct: 100 * 989.0 / 999, wantVal: 989, wantOK: true},
		{n: 20, wantPct: 50, wantVal: 10, wantOK: true},
		{n: 19, wantOK: false},
		{n: 0, wantOK: false},
	}
	for _, c := range cases {
		q := tail(seqSamples(c.n), 99)
		if q.ok != c.wantOK || q.N != c.n {
			t.Fatalf("n=%d: ok=%v N=%d, want ok=%v N=%d", c.n, q.ok, q.N, c.wantOK, c.n)
		}
		if c.wantOK && (math.Abs(q.Pct-c.wantPct) > 1e-9 || q.Value != c.wantVal) {
			t.Errorf("n=%d: p%v = %v, want p%v = %v", c.n, q.Pct, q.Value, c.wantPct, c.wantVal)
		}
	}
}

func TestTailAlwaysLeavesTenSamplesBeyond(t *testing.T) {
	for n := 20; n <= 3000; n++ {
		q := tail(seqSamples(n), 99)
		if !q.ok {
			t.Fatalf("n=%d: no tail reported", n)
		}
		beyond := n - int(q.Value) // samples are 1..n
		if beyond < minBeyond {
			t.Fatalf("n=%d: p%v has %d samples beyond it", n, q.Pct, beyond)
		}
		if q.Pct > 99 {
			t.Fatalf("n=%d: reported p%v above the p99 cap", n, q.Pct)
		}
		// The next rank up must break the rule, or the percentile is
		// not the highest one allowed.
		if q.Pct < 99 && beyond != minBeyond {
			t.Fatalf("n=%d: p%v leaves %d beyond; a higher percentile was allowed", n, q.Pct, beyond)
		}
	}
}

func TestMedianNearestRank(t *testing.T) {
	if q := median(seqSamples(4)); q.Value != 2 || q.N != 4 {
		t.Errorf("median of 1..4 = %v (n=%d), want 2", q.Value, q.N)
	}
	if q := median(seqSamples(5)); q.Value != 3 {
		t.Errorf("median of 1..5 = %v, want 3", q.Value)
	}
	if q := median(nil); q.ok {
		t.Error("median of no samples reported ok")
	}
}
