package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"raal/internal/encode"
)

// planOfLen draws maskedSamples until one has active length l, so a test
// can pin which samples the length-bucketed scheduler puts in one chunk.
func planOfLen(rng *rand.Rand, l int) *encode.Sample {
	for {
		if s := maskedSample(rng); activeLen(s) == l {
			return s
		}
	}
}

// shellCopy is a resource sweep's view of plan: a shallow copy that shares
// plan's encoding (Nodes, Mask, Children) under its own allocation.
func shellCopy(plan *encode.Sample, res []float64) *encode.Sample {
	c := *plan
	c.Resource = res
	return &c
}

// independentCopy is the same (plan, allocation) pair encoded on its own:
// every field deep-copied, so no two such samples share a Nodes matrix.
func independentCopy(plan *encode.Sample, res []float64) *encode.Sample {
	c := &encode.Sample{
		Nodes:    plan.Nodes.Clone(),
		Mask:     append([]bool(nil), plan.Mask...),
		Children: make([][]bool, len(plan.Children)),
		Resource: append([]float64(nil), res...),
		Stats:    append([]float64(nil), plan.Stats...),
		CostSec:  plan.CostSec,
	}
	for i, row := range plan.Children {
		c.Children[i] = append([]bool(nil), row...)
	}
	return c
}

func randResources(rng *rand.Rand, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		r := make([]float64, tRes)
		for j := range r {
			r[j] = rng.Float64()
		}
		out[i] = r
	}
	return out
}

// sharedCase is one property-test corpus: the same (plan, allocation)
// pairs built twice — once sharing plan encodings, once encoded
// independently — plus the number of distinct plans the shared build has.
type sharedCase struct {
	name          string
	shared, indep []*encode.Sample
	plans         int
}

// gridCase sweeps one plan across g allocations.
func gridCase(rng *rand.Rand, g int) sharedCase {
	plan := planOfLen(rng, tNodes)
	c := sharedCase{name: fmt.Sprintf("grid-%d", g), plans: 1}
	for _, res := range randResources(rng, g) {
		c.shared = append(c.shared, shellCopy(plan, res))
		c.indep = append(c.indep, independentCopy(plan, res))
	}
	return c
}

// mixedCase interleaves two shared plans with unshared samples, all of one
// active length so the scheduler puts them in the same chunks.
func mixedCase(rng *rand.Rand) sharedCase {
	a, b := planOfLen(rng, tNodes), planOfLen(rng, tNodes)
	c := sharedCase{name: "mixed", plans: 2}
	for _, res := range randResources(rng, 40) {
		for _, plan := range []*encode.Sample{a, b} {
			c.shared = append(c.shared, shellCopy(plan, res))
			c.indep = append(c.indep, independentCopy(plan, res))
		}
		u := planOfLen(rng, tNodes)
		c.shared = append(c.shared, u)
		c.indep = append(c.indep, u)
		c.plans++
	}
	return c
}

// TestPlanSharingBitIdentical is the plan-sharing property: a chunk whose
// samples share one plan encoding runs the plan-side layers once, yet
// predicts bit-identically to the same pairs encoded independently and
// scored one per forward pass. It covers every variant, the float64 and
// reduced-precision paths, grids on and across the 64-sample chunk
// boundary, chunks that mix shared plans with unshared samples, and every
// parallelism setting.
func TestPlanSharingBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cases := []sharedCase{gridCase(rng, 60), gridCase(rng, 150), mixedCase(rng)}
	for _, c := range cases {
		if plans, _ := planGroups(c.shared); len(plans) != c.plans {
			t.Fatalf("%s: shared build has %d distinct plans, want %d", c.name, len(plans), c.plans)
		}
		if plans, _ := planGroups(c.indep); len(plans) != len(c.indep) {
			t.Fatalf("%s: independent build shares plans (%d of %d)", c.name, len(plans), len(c.indep))
		}
	}
	opts := []PredictOpts{{Workers: 1, ChunkSize: 1}, {Workers: 4, ChunkSize: 7}, {Workers: 2, ChunkSize: 64}, {}, {NoBucket: true}}
	tc := quickTrain()
	tc.Epochs = 1
	variants := map[string]Variant{"raal": RAAL(), "nelstm": NELSTM(), "nalstm": NALSTM(), "raac": RAAC()}
	for vname, v := range variants {
		m, _, err := Train(synthDataset(48, 5), v, testConfig(), tc)
		if err != nil {
			t.Fatal(err)
		}
		predictors := map[string]func([]*encode.Sample, PredictOpts) []float64{"f64": m.PredictWith, "f32": m.Quantize().PredictWith}
		for pname, predict := range predictors {
			for _, c := range cases {
				// The reference scores every independent sample in its own
				// forward pass: the per-sample graph, no chunk-mates.
				want := predict(c.indep, PredictOpts{Workers: 1, ChunkSize: 1})
				for _, opt := range opts {
					for build, samples := range map[string][]*encode.Sample{"shared": c.shared, "independent": c.indep} {
						got := predict(samples, opt)
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								t.Fatalf("%s/%s/%s opt %+v sample %d: %s build %v != per-sample %v",
									vname, pname, c.name, opt, i, build, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}
