package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail value read off fewer samples is noise, not a tail.
const minBeyond = 10

// quantile is one percentile read off a sample set, with the evidence
// behind it.
type quantile struct {
	Pct   float64 `json:"pct"`   // the percentile actually reported
	Value float64 `json:"value"` // in the samples' unit
	N     int     `json:"n"`     // samples the percentile was read from
	ok    bool
}

// rankAt is the nearest-rank index (1-based) of percentile pct in n
// samples: the smallest k with k/n >= pct/100.
func rankAt(n int, pct float64) int {
	k := int(math.Ceil(pct*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// median returns the nearest-rank 50th percentile of xs (sorted in
// place); ok is false for an empty set.
func median(xs []float64) quantile {
	if len(xs) == 0 {
		return quantile{}
	}
	sort.Float64s(xs)
	k := rankAt(len(xs), 50)
	return quantile{Pct: 50, Value: xs[k-1], N: len(xs), ok: true}
}

// tail returns the highest percentile up to maxPct that still has at
// least minBeyond samples above it, read off xs (sorted in place). With
// 1000 samples that is p99; with 400 it is p97.5. ok is false when even
// the median would have fewer than minBeyond samples above it.
func tail(xs []float64, maxPct float64) quantile {
	n := len(xs)
	k, pct := rankAt(n, maxPct), maxPct
	if n-k < minBeyond {
		k = n - minBeyond
		pct = 100 * float64(k) / float64(n)
	}
	if k < 1 || pct < 50 {
		return quantile{N: n}
	}
	sort.Float64s(xs)
	return quantile{Pct: pct, Value: xs[k-1], N: n, ok: true}
}
