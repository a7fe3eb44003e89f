package core

import (
	"testing"

	"raal/internal/telemetry"
)

// TestPredictTracedStageBreakdown is the span acceptance check: a traced
// predict exposes the per-stage forward-pass decomposition, every stage
// duration is non-negative, and — because the traced path is serial — the
// stage durations sum to at most the span's total wall time.
func TestPredictTracedStageBreakdown(t *testing.T) {
	samples := synthDataset(32, 7)
	m := NewModel(RAAL(), testConfig())

	sp := telemetry.StartSpan("predict")
	preds := m.PredictSpan(samples, sp)
	sp.End()
	if len(preds) != len(samples) {
		t.Fatalf("got %d predictions, want %d", len(preds), len(samples))
	}

	stages := sp.Stages()
	got := make(map[string]bool, len(stages))
	var sum float64
	for _, st := range stages {
		if st.Dur < 0 {
			t.Errorf("stage %q has negative duration %v", st.Name, st.Dur)
		}
		got[st.Name] = true
		sum += st.Dur.Seconds()
	}
	for _, want := range []string{"embed", "lstm", "attention", "dense", "decode"} {
		if !got[want] {
			t.Errorf("span is missing stage %q (have %v)", want, stages)
		}
	}
	if total := sp.Total().Seconds(); sum > total {
		t.Errorf("stage durations sum to %.6fs > span total %.6fs", sum, total)
	}
	if sp.Total() <= 0 {
		t.Errorf("span total = %v, want > 0", sp.Total())
	}
}

// TestPredictTracedMatchesPredict confirms tracing is observation only:
// the traced path returns bit-identical predictions.
func TestPredictTracedMatchesPredict(t *testing.T) {
	samples := synthDataset(20, 3)
	m := NewModel(RAAC(), testConfig()) // conv branch: embed → conv stages
	want := m.Predict(samples)
	sp := telemetry.StartSpan("predict")
	got := m.PredictSpan(samples, sp)
	sp.End()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prediction %d: traced %v != plain %v", i, got[i], want[i])
		}
	}
	if sp.Dur("conv") < 0 || sp.Dur("embed") < 0 {
		t.Fatalf("conv-branch span missing stages: %v", sp)
	}
	found := false
	for _, st := range sp.Stages() {
		if st.Name == "conv" {
			found = true
		}
	}
	if !found {
		t.Errorf("CNN variant span should record a conv stage, got %v", sp.Stages())
	}
}

// TestInstrumentationObservesPredictAndFit wires a registry through both
// inference and training and checks the metric families move.
func TestInstrumentationObservesPredictAndFit(t *testing.T) {
	reg := telemetry.NewRegistry()
	ins := NewInstrumentation(reg)

	samples := synthDataset(48, 5)
	m := NewModel(RAAL(), testConfig())
	m.Instrument(ins)
	m.Predict(samples)
	if got := ins.PredictRows.Value(); got != 48 {
		t.Errorf("predict rows counter = %d, want 48", got)
	}
	if n := ins.PredictLatency.Count(); n != 1 {
		t.Errorf("predict latency observations = %d, want 1", n)
	}

	tc := quickTrain()
	tc.Epochs = 2
	tc.Instr = ins
	if _, err := m.Fit(samples, tc); err != nil {
		t.Fatal(err)
	}
	if got := ins.TrainEpochs.Value(); got != 2 {
		t.Errorf("train epochs counter = %d, want 2", got)
	}
	if loss := ins.TrainLoss.Value(); loss <= 0 {
		t.Errorf("train loss gauge = %v, want > 0", loss)
	}
}
