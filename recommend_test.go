package raal

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"raal/internal/encode"
	"raal/internal/telemetry"
)

func TestArgminSkipsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		xs   []float64
		want int
	}{
		{"nan-first", []float64{nan, 3, 1, 2}, 2},
		{"inf-first", []float64{inf, 3, 1, 2}, 2},
		{"neg-inf-first", []float64{-inf, 3, 1, 2}, 2},
		{"nan-middle", []float64{3, nan, 2}, 2},
		{"neg-inf-middle", []float64{3, -inf, 2}, 2},
		{"nan-last", []float64{3, 1, nan}, 1},
		{"neg-inf-last", []float64{3, 1, -inf}, 1},
		{"inf-last", []float64{3, 1, inf}, 1},
		{"first-on-ties", []float64{nan, 2, 1, 1}, 2},
		{"all-non-finite", []float64{nan, inf, -inf}, 0},
		{"single", []float64{5}, 0},
	}
	for _, c := range cases {
		if got := argmin(c.xs); got != c.want {
			t.Errorf("%s: argmin(%v) = %d, want %d", c.name, c.xs, got, c.want)
		}
	}
}

// privateCostModel returns an independent copy of the shared model (a
// Save/Load round trip), so a test can instrument it and enable its
// encode cache without touching the shared instance.
func privateCostModel(t testing.TB) (*System, *CostModel, *CostModel) {
	t.Helper()
	sys, _, shared := sharedSystem(t)
	var buf bytes.Buffer
	if err := shared.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cm, err := LoadCostModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return sys, shared, cm
}

// TestRecommendResourcesConcurrentSharedCache hammers one cached model's
// grid sweep from 8 goroutines. A sweep encodes its plan once (one cache
// lookup) and scores shallow per-allocation copies of that sample, so it
// must: miss the cache exactly once per cold plan and never when warm,
// agree bit for bit with the serial sweep and with pricing the winning
// allocation alone, and never write to the shared cached sample.
func TestRecommendResourcesConcurrentSharedCache(t *testing.T) {
	sys, shared, cm := privateCostModel(t)
	cm.Instrument(telemetry.NewRegistry())
	cm.EnableEncodeCache(256)

	var plans []*Plan
	for _, q := range []string{
		`SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id`,
		`SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id < 500`,
	} {
		ps, err := sys.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, ps...)
	}
	grid := DefaultResourceGrid()

	type rec struct {
		res  Resources
		cost float64
	}
	want := make([]rec, len(plans))
	for i, p := range plans {
		before := cm.api.encMisses.Value()
		want[i].res, want[i].cost = cm.RecommendResources(p, grid)
		if d := cm.api.encMisses.Value() - before; d != 1 {
			t.Fatalf("plan %d: cold %d-point sweep added %d encode-cache misses, want 1", i, len(grid), d)
		}
		if alone := shared.Estimate(p, want[i].res); math.Float64bits(alone) != math.Float64bits(want[i].cost) {
			t.Fatalf("plan %d: sweep priced its pick at %v, pricing it alone gives %v", i, want[i].cost, alone)
		}
	}

	cached := map[*encode.Sample][]float64{}
	for _, e := range cm.cache.lru.Values() {
		s := e.sample.Load()
		cached[s] = append([]float64(nil), s.Resource...)
	}
	if len(cached) != len(plans) {
		t.Fatalf("cache holds %d samples after %d sweeps, want one per plan", len(cached), len(plans))
	}

	missesWarm := cm.api.encMisses.Value()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				for k := range plans {
					i := (k + g) % len(plans)
					res, cost := cm.RecommendResources(plans[i], grid)
					if res != want[i].res || math.Float64bits(cost) != math.Float64bits(want[i].cost) {
						t.Errorf("goroutine %d plan %d: (%v, %v) != serial (%v, %v)",
							g, i, res, cost, want[i].res, want[i].cost)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if d := cm.api.encMisses.Value() - missesWarm; d != 0 {
		t.Fatalf("warm sweeps added %d encode-cache misses, want 0", d)
	}
	for s, res := range cached {
		for j := range res {
			if math.Float64bits(s.Resource[j]) != math.Float64bits(res[j]) {
				t.Fatalf("cached sample's Resource changed: %v, was %v", s.Resource, res)
			}
		}
	}
}

// TestRecommendResourcesAllocsPerOpCeiling is the host-independent gate on
// the grid sweep: a warm 60-point RecommendResources encodes its plan
// once and runs the plan-side layers once, so its allocation count is a
// fixed small multiple of the grid size rather than 60 encodes and 60
// unrolled plans.
func TestRecommendResourcesAllocsPerOpCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-driven; skipped in -short")
	}
	sys, _, cm := privateCostModel(t)
	cm.EnableEncodeCache(256)
	plans, err := sys.Plan(`SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id`)
	if err != nil {
		t.Fatal(err)
	}
	grid := DefaultResourceGrid()
	cm.RecommendResources(plans[0], grid) // warm the cache and the tape pool

	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cm.RecommendResources(plans[0], grid)
		}
	})
	const ceiling = 2500 // per-sample sweep on this plan: ~4,700 allocs/op; plan-shared: ~280
	if got := r.AllocsPerOp(); got > ceiling {
		t.Fatalf("RecommendResources allocations regressed: %d allocs/op, ceiling %d", got, ceiling)
	}
}
