package bench

import (
	"testing"

	"pcxxstreams/internal/vtime"
)

// TestPlannerGrid is the planner-vs-oracle acceptance test: the 16-cell
// write grid (whose static columns are the two-phase ablation) and the
// 8-cell read workload grid, each cell replayed under every static choice
// and under full-auto. StrategyAuto must land within PlannerTolerance of
// the best static choice on at least PlannerMinFraction of the cells, and
// its file image (write side) and extracted segments (read side) must be
// byte-identical in every cell — a planner that wins with wrong bytes
// fails outright.
func TestPlannerGrid(t *testing.T) {
	g, err := PlannerSweep()
	if err != nil {
		t.Fatal(err)
	}
	wm, rm := 0, 0
	for _, pt := range g.Write {
		if pt.Matched {
			wm++
		} else {
			t.Logf("write cell %s/%dp/%dB/sf%d: auto %.4fs vs best %s %.4fs (%.3fx, pick=%s)",
				pt.Platform, pt.NProcs, pt.Particles, pt.StripeFactor,
				pt.Auto, pt.BestStrategy, pt.Best, pt.AutoOverBest, pt.AutoPick)
		}
	}
	for _, pt := range g.Read {
		if pt.Matched {
			rm++
		} else {
			t.Logf("read cell %s/%dB/compute %.3fs: auto %.4fs vs best %s %.4fs (%.3fx)",
				pt.Platform, pt.Particles, pt.ComputePerRecord,
				pt.Auto, pt.BestChoice, pt.Best, pt.AutoOverBest)
		}
	}
	t.Logf("planner matched the oracle on %d/%d write and %d/%d read cells",
		wm, len(g.Write), rm, len(g.Read))
	if err := CheckPlanner(g, PlannerTolerance, PlannerMinFraction); err != nil {
		t.Fatal(err)
	}
}

// TestPlannerModelTracksObserved: on every grid cell where the planner ran,
// its own summed cost estimates and the observed costs it was calibrated
// with must both be positive and finite — the model-vs-measured columns of
// the committed artifact are real measurements, not zero-filled fields.
func TestPlannerModelTracksObserved(t *testing.T) {
	pt, err := MeasurePlannerWrite(vtime.Paragon(), 4, 64, 8, 4, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if pt.ModelEstimate <= 0 || pt.ModelObserved <= 0 {
		t.Fatalf("planner self-accounting empty: estimate %g, observed %g", pt.ModelEstimate, pt.ModelObserved)
	}
	if pt.AutoPick == "" {
		t.Fatal("planner recorded no strategy pick")
	}
	// The closed-form model replicates the pfs cost laws, so on a cell this
	// regular the summed estimates should be the same order of magnitude as
	// the observations (calibration then absorbs the residual).
	if ratio := pt.ModelObserved / pt.ModelEstimate; ratio < 0.1 || ratio > 10 {
		t.Errorf("model estimate %.4fs vs observed %.4fs — off by more than 10x", pt.ModelEstimate, pt.ModelObserved)
	}
}

// TestCheckPlannerGate pins the gate's own semantics on synthetic grids:
// byte mismatch fails regardless of timing, a sub-threshold matched
// fraction fails, an empty grid fails, a grid where two-phase never beats
// both classic paths fails, and a healthy grid passes.
func TestCheckPlannerGate(t *testing.T) {
	// Static columns where two-phase wins outright (1.0 < 1.2, 1.3).
	ok := PlannerWritePoint{Platform: "p", Funnel: 1.2, Parallel: 1.3, TwoPhase: 1.0,
		Auto: 1.0, Best: 1.0, Identical: true}
	slow, bad := ok, ok
	slow.Auto = 2.0
	bad.Identical = false
	// A tie with funnel is not an outright win.
	tie := ok
	tie.Funnel = tie.TwoPhase

	if err := CheckPlanner(PlannerGrid{Write: []PlannerWritePoint{ok, ok}}, 0.10, 0.90); err != nil {
		t.Errorf("healthy grid failed: %v", err)
	}
	if err := CheckPlanner(PlannerGrid{Write: []PlannerWritePoint{ok, bad}}, 0.10, 0.0); err == nil {
		t.Error("byte mismatch passed the gate")
	}
	if err := CheckPlanner(PlannerGrid{Write: []PlannerWritePoint{ok, slow, slow, slow}}, 0.10, 0.90); err == nil {
		t.Error("25% matched fraction passed a 90% gate")
	}
	if err := CheckPlanner(PlannerGrid{}, 0.10, 0.90); err == nil {
		t.Error("empty grid passed the gate")
	}
	if err := CheckPlanner(PlannerGrid{Write: []PlannerWritePoint{tie, tie}}, 0.10, 0.90); err == nil {
		t.Error("grid where two-phase never beats both classic paths passed the gate")
	}
	if got := TwoPhaseWins(PlannerGrid{Write: []PlannerWritePoint{ok, tie, ok}}); got != 2 {
		t.Errorf("TwoPhaseWins = %d, want 2", got)
	}
}
