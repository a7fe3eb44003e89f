package raal

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var (
	sysOnce sync.Once
	sysInst *System
	dsInst  *Dataset
	cmInst  *CostModel
	sysErr  error
)

// sharedSystem builds one small system + dataset + model for all tests.
func sharedSystem(t testing.TB) (*System, *Dataset, *CostModel) {
	t.Helper()
	sysOnce.Do(func() {
		sysInst, sysErr = Open(IMDB, 0.03, 1)
		if sysErr != nil {
			return
		}
		dsInst, sysErr = sysInst.Collect(CollectOptions{NumQueries: 80, ResStatesPerPlan: 2})
		if sysErr != nil {
			return
		}
		cmInst, _, sysErr = TrainCostModel(dsInst, RAAL(), TrainOptions{Epochs: 15, LR: 5e-3})
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return sysInst, dsInst, cmInst
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open("bogus", 0.1, 1); err == nil {
		t.Fatal("unknown benchmark should error")
	}
	if _, err := Open(IMDB, 0, 1); err == nil {
		t.Fatal("zero scale should error")
	}
}

func TestOpenTPCH(t *testing.T) {
	sys, err := Open(TPCH, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Tables()) != 8 {
		t.Fatalf("TPC-H should have 8 tables, got %v", sys.Tables())
	}
}

func TestPlanExecuteCost(t *testing.T) {
	sys, _, _ := sharedSystem(t)
	plans, err := sys.Plan(`SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 2 {
		t.Fatalf("want multiple candidates, got %d", len(plans))
	}
	rel, err := sys.Execute(plans[0])
	if err != nil {
		t.Fatal(err)
	}
	if rel.N != 1 {
		t.Fatalf("aggregate should return 1 row, got %d", rel.N)
	}
	sec, err := sys.Cost(plans[0], DefaultResources())
	if err != nil {
		t.Fatal(err)
	}
	if sec <= 0 {
		t.Fatalf("cost %v", sec)
	}
}

func TestRunConvenience(t *testing.T) {
	sys, _, _ := sharedSystem(t)
	rel, sec, err := sys.Run(`SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id < 100`, DefaultResources())
	if err != nil {
		t.Fatal(err)
	}
	if rel.N != 1 || sec <= 0 {
		t.Fatalf("rel %v sec %v", rel.N, sec)
	}
}

func TestTrainedModelQuality(t *testing.T) {
	_, ds, cm := sharedSystem(t)
	samples := cm.EncodeDataset(ds)
	m, err := cm.EvaluateOn(samples)
	if err != nil {
		t.Fatal(err)
	}
	// In-sample fit of a trained model must correlate strongly.
	if m.COR < 0.5 {
		t.Fatalf("trained model too weak: %v", m)
	}
}

func TestEstimateAndSelectPlan(t *testing.T) {
	sys, _, cm := sharedSystem(t)
	query := `SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id AND mc.company_id < 50`
	plans, err := sys.Plan(query)
	if err != nil {
		t.Fatal(err)
	}
	res := DefaultResources()
	for _, p := range plans {
		if est := cm.Estimate(p, res); est < 0 || math.IsNaN(est) {
			t.Fatalf("bad estimate %v", est)
		}
	}
	best, pred, err := sys.SelectPlan(cm, query, res)
	if err != nil {
		t.Fatal(err)
	}
	if best == nil || pred < 0 {
		t.Fatalf("selection failed: %v %v", best, pred)
	}
	// The selected plan's prediction must be the minimum.
	preds := cm.EstimateBatch(plans[:min(3, len(plans))], res)
	for _, p := range preds {
		if pred > p+1e-9 {
			t.Fatalf("selected plan prediction %v not minimal among %v", pred, preds)
		}
	}
}

func TestSelectPlanEmpty(t *testing.T) {
	_, _, cm := sharedSystem(t)
	if p, _ := cm.SelectPlan(nil, DefaultResources()); p != nil {
		t.Fatal("empty candidate set should return nil")
	}
}

// TestCostModelSaveLoadFile round-trips through an actual file, the way
// raaltrain -out / raalquery -model do. Regression test: an *os.File is
// not an io.ByteReader, so each gob section's decoder used to wrap it in
// its own read-ahead buffer and desynchronize the following sections —
// bytes.Buffer round trips always worked while file loads always failed.
func TestCostModelSaveLoadFile(t *testing.T) {
	sys, _, cm := sharedSystem(t)
	path := filepath.Join(t.TempDir(), "model.raal")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	in, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	restored, err := LoadCostModel(in)
	if err != nil {
		t.Fatalf("loading model from file: %v", err)
	}
	plans, err := sys.Plan(`SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id < 100`)
	if err != nil {
		t.Fatal(err)
	}
	res := DefaultResources()
	a := cm.Estimate(plans[0], res)
	b := restored.Estimate(plans[0], res)
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("file-restored model predicts %v, original %v", b, a)
	}
}

func TestCostModelSaveLoad(t *testing.T) {
	sys, _, cm := sharedSystem(t)
	var buf bytes.Buffer
	if err := cm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadCostModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Variant().Name != cm.Variant().Name {
		t.Fatal("variant not restored")
	}
	plans, err := sys.Plan(`SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id < 100`)
	if err != nil {
		t.Fatal(err)
	}
	res := DefaultResources()
	a := cm.Estimate(plans[0], res)
	b := restored.Estimate(plans[0], res)
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("restored model predicts %v, original %v", b, a)
	}
}

func TestTrainCostModelErrors(t *testing.T) {
	if _, _, err := TrainCostModel(nil, RAAL(), TrainOptions{}); err == nil {
		t.Fatal("nil dataset should error")
	}
}

func TestCollectFixedResources(t *testing.T) {
	sys, _, _ := sharedSystem(t)
	fixed := DefaultResources()
	ds, err := sys.Collect(CollectOptions{NumQueries: 10, FixedRes: &fixed, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ds.Records {
		if r.Res != fixed {
			t.Fatal("fixed resources not honored")
		}
	}
}

func TestRecommendResources(t *testing.T) {
	sys, _, cm := sharedSystem(t)
	plans, err := sys.Plan(`SELECT COUNT(*) FROM title t, movie_companies mc WHERE t.id = mc.movie_id`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Execute(plans[0]); err != nil {
		t.Fatal(err)
	}
	grid := DefaultResourceGrid()
	if len(grid) != 4*3*5 {
		t.Fatalf("grid size %d", len(grid))
	}
	best, pred := cm.RecommendResources(plans[0], grid)
	if err := best.Validate(); err != nil {
		t.Fatalf("recommended invalid resources: %v", err)
	}
	if pred < 0 || math.IsNaN(pred) {
		t.Fatalf("bad predicted cost %v", pred)
	}
	// The recommendation must be the grid's argmin of the model.
	for _, res := range grid {
		if cm.Estimate(plans[0], res) < pred-1e-9 {
			t.Fatalf("grid point cheaper than recommendation: %v vs %v",
				cm.Estimate(plans[0], res), pred)
		}
	}
	// Empty grid is well-defined.
	if _, p := cm.RecommendResources(plans[0], nil); p != 0 {
		t.Fatal("empty grid should return zero")
	}
}

func TestCostBreakdownExported(t *testing.T) {
	sys, _, _ := sharedSystem(t)
	plans, err := sys.Plan(`SELECT COUNT(*) FROM movie_keyword mk WHERE mk.keyword_id < 100`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Execute(plans[0]); err != nil {
		t.Fatal(err)
	}
	b, err := sys.CostBreakdown(plans[0], DefaultResources())
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Stages) == 0 || b.TotalSec <= 0 {
		t.Fatalf("degenerate breakdown: %+v", b)
	}
}

func TestVariantsExported(t *testing.T) {
	for _, v := range []Variant{RAAL(), NELSTM(), NALSTM(), RAAC()} {
		if v.Name == "" {
			t.Fatal("variant missing name")
		}
	}
	if !RAAL().ResourceAttention {
		t.Fatal("RAAL must be resource-aware")
	}
	if RAAL().WithoutResources().ResourceAttention {
		t.Fatal("WithoutResources must disable resource attention")
	}
}

func TestEvaluateExported(t *testing.T) {
	m, err := Evaluate([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.COR-1) > 1e-9 {
		t.Fatalf("COR %v", m.COR)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
