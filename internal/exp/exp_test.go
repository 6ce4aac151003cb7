package exp

import (
	"math"
	"strings"
	"testing"

	"sramtest/internal/charac"
	"sramtest/internal/process"
	"sramtest/internal/regulator"
	"sramtest/internal/testflow"
)

// quickConds keeps the expensive sweeps to the paper's dominant worst
// condition for unit-test speed; the cmd tools run the full grids.
func quickConds() []process.Condition {
	return []process.Condition{{Corner: process.FS, VDD: 1.1, TempC: 125}}
}

func TestTable1Structure(t *testing.T) {
	rows := Table1(quickConds())
	if len(rows) != 10 {
		t.Fatalf("Table1 has %d rows, want 10", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.CS.Name] = r
	}
	// Pairs share the same DRV with roles exchanged.
	for _, base := range []string{"CS1", "CS2", "CS3", "CS4", "CS5"} {
		one, zero := byName[base+"-1"], byName[base+"-0"]
		if math.Abs(one.DRV-zero.DRV) > 3e-3 {
			t.Errorf("%s pair DRV mismatch: %g vs %g", base, one.DRV, zero.DRV)
		}
		if one.DRV1 < one.DRV0-1e-3 {
			t.Errorf("%s-1 must be limited by DRV_DS1", base)
		}
		if zero.DRV0 < zero.DRV1-1e-3 {
			t.Errorf("%s-0 must be limited by DRV_DS0", base)
		}
	}
	// Ladder ordering (paper: CS1 > CS2 = CS5 > CS3 > CS4).
	if !(byName["CS1-1"].DRV > byName["CS2-1"].DRV &&
		byName["CS2-1"].DRV > byName["CS3-1"].DRV &&
		byName["CS3-1"].DRV > byName["CS4-1"].DRV) {
		t.Error("Table I DRV ladder ordering violated")
	}
	if math.Abs(byName["CS2-1"].DRV-byName["CS5-1"].DRV) > 2e-3 {
		t.Error("CS5 must equal CS2 (same variation, more cells)")
	}
}

func TestTable1Report(t *testing.T) {
	rows := Table1(quickConds())
	s := Table1Report(rows).String()
	for _, want := range []string{"CS1-1", "CS5-0", "DRV_DS0", "paper"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
	if len(Table1Paper()) != 10 {
		t.Error("paper reference table must have 10 entries")
	}
}

func TestFig4ShapeAndObservations(t *testing.T) {
	res := Fig4([]float64{-6, 0, 6}, quickConds())
	if len(res.DRV1) != 6 || len(res.DRV0) != 6 {
		t.Fatalf("Fig4 series count %d/%d, want 6/6", len(res.DRV1), len(res.DRV0))
	}
	if bad := Fig4Observations(res); len(bad) != 0 {
		t.Errorf("paper observations violated: %v", bad)
	}
	a, b := Fig4Plots(res)
	if !strings.Contains(a.String(), "MPcc1") || !strings.Contains(b.String(), "MNcc4") {
		t.Error("plots missing series")
	}
}

func TestFig4MirrorSymmetry(t *testing.T) {
	// DRV_DS0 of +σ on MPcc1 equals DRV_DS1 of +σ on MPcc2 (panel b is
	// the mirrored panel a).
	res := Fig4([]float64{-6, 6}, quickConds())
	find := func(set []Fig4Series, tr process.CellTransistor) Fig4Series {
		for _, s := range set {
			if s.Transistor == tr {
				return s
			}
		}
		t.Fatal("missing series")
		return Fig4Series{}
	}
	a := find(res.DRV1, process.MPcc1)
	b := find(res.DRV0, process.MPcc2)
	for i := range a.Sigmas {
		if math.Abs(a.DRV[i]-b.DRV[i]) > 3e-3 {
			t.Errorf("mirror symmetry violated at σ=%g: %g vs %g", a.Sigmas[i], a.DRV[i], b.DRV[i])
		}
	}
}

func TestTable2PaperReference(t *testing.T) {
	paper := Table2Paper()
	if len(paper) != 17*5 {
		t.Fatalf("paper Table II has %d entries, want 85", len(paper))
	}
	for _, d := range regulator.DRFCandidates() {
		for _, cs := range []string{"CS1", "CS2", "CS3", "CS4", "CS5"} {
			if _, ok := paper[d.String()+"/"+cs]; !ok {
				t.Errorf("missing paper value for %s/%s", d, cs)
			}
		}
	}
}

func TestTable2SingleCell(t *testing.T) {
	// One Table II cell end-to-end, at the paper's dominant condition.
	opt := charac.DefaultOptions()
	opt.Conditions = []process.Condition{{Corner: process.FS, VDD: 1.0, TempC: 125}}
	res, err := charac.CharacterizeDefect(regulator.Df16, process.Table1CaseStudies()[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Open() {
		t.Fatal("Df16 must cause DRFs for CS1")
	}
	// Same decade as the paper's 976Ω.
	if res.MinRes < 100 || res.MinRes > 10e3 {
		t.Errorf("Df16/CS1 = %g Ω, paper reports 976 Ω", res.MinRes)
	}
	s := Table2Report([]charac.Result{res}).String()
	// Paper value 976.56Ω renders as 977Ω under 3-significant-digit SI.
	if !strings.Contains(s, "Df16") || !strings.Contains(s, "977Ω") {
		t.Errorf("Table2 report:\n%s", s)
	}
}

func TestPowerSavingsClaims(t *testing.T) {
	rows := PowerSavings(nil)
	if len(rows) != 45 {
		t.Fatalf("power study has %d rows", len(rows))
	}
	// Paper §IV.B category 1: worst defective-DS saving at high
	// temperature still exceeds 30 %.
	if w := WorstDefectSavingsAtHighTemp(rows); w < 0.30 {
		t.Errorf("worst high-temp defect savings %.1f%%, paper observes >30%%", w*100)
	}
	// The healthy regulator must always beat the defective one.
	for _, r := range rows {
		if r.PDS > r.PDSDefect+1e-15 {
			t.Errorf("%s: healthy DS power above defective", r.Cond)
		}
	}
	if s := PowerReport(rows[:3]).String(); !strings.Contains(s, "P_ACT") {
		t.Errorf("power report:\n%s", s)
	}
}

func TestCoverageCampaign(t *testing.T) {
	cond := process.Condition{Corner: process.FS, VDD: 1.0, TempC: 125}
	res, err := Coverage(cond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Errorf("coverage violations: %v", res.Violations)
	}
	// The paper's discriminator: only March m-LZ detects DRF_DS.
	testIdx := map[string]int{}
	for i, tst := range res.Tests {
		testIdx[tst.Name] = i
	}
	for si, sc := range res.Scenarios {
		if !strings.HasPrefix(sc.Name, "DRF_DS") {
			continue
		}
		for name, i := range testIdx {
			got := res.Detected[si][i]
			if name == "March m-LZ" && !got {
				t.Errorf("March m-LZ missed %s", sc.Name)
			}
			if name != "March m-LZ" && got {
				t.Errorf("%s should not detect %s", name, sc.Name)
			}
		}
	}
	if s := CoverageReport(res).String(); !strings.Contains(s, "March m-LZ") {
		t.Errorf("coverage report:\n%s", s)
	}
}

func TestDwellTimeStudy(t *testing.T) {
	cond := process.Condition{Corner: process.FS, VDD: 1.0, TempC: 125}
	v := process.Variation{process.MPcc1: -3, process.MNcc1: -3}
	pts := DwellTime(v, cond, []float64{-0.02, 0.02, 0.1, 0.2}, 50e-3)
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	if !math.IsInf(pts[0].FlipTime, 1) {
		t.Error("above the DRV the cell must never flip")
	}
	// Flip gets faster as the rail drops further below the DRV.
	var finite []float64
	for _, p := range pts[1:] {
		if !math.IsInf(p.FlipTime, 1) {
			finite = append(finite, p.FlipTime)
		}
	}
	if len(finite) < 2 {
		t.Fatalf("need at least two finite flip times, got %v", pts)
	}
	for i := 1; i < len(finite); i++ {
		if finite[i] > finite[i-1] {
			t.Errorf("flip time should shrink with margin: %v", finite)
		}
	}
	if s := DwellReport(pts, 1e-3).String(); !strings.Contains(s, "flip time") {
		t.Errorf("dwell report:\n%s", s)
	}
}

func TestTestTimeClaims(t *testing.T) {
	// Synthetic 3-iteration flow out of 12 candidates.
	flow := testflow.Flow{
		Iterations: make([]testflow.Iteration, 3),
		Candidates: 12,
	}
	r := TestTime(flow)
	if r.PerCell != 5 || r.Constant != 4 {
		t.Errorf("March m-LZ length %dN+%d, want 5N+4", r.PerCell, r.Constant)
	}
	if math.Abs(r.Reduction-0.75) > 1e-12 {
		t.Errorf("reduction %.2f, want 0.75", r.Reduction)
	}
	if math.Abs(r.Exhaustive/r.Optimized-4) > 1e-9 {
		t.Errorf("exhaustive/optimized = %g, want 4", r.Exhaustive/r.Optimized)
	}
	// A single m-LZ run on 4K words with 1ms dwells is dominated by the
	// two dwells: ≈2.2ms.
	if r.SingleRun < 2e-3 || r.SingleRun > 3e-3 {
		t.Errorf("single m-LZ run %g s, want ≈2.2ms", r.SingleRun)
	}
}

func TestTable3ReportRendering(t *testing.T) {
	res := Table3Result{
		WorstDRV: 0.726,
		Flow: testflow.Flow{
			Candidates: 12,
			Iterations: []testflow.Iteration{
				{Cond: testflow.TestCondition{VDD: 1.0, Level: regulator.L74}, MeasuredVreg: 0.738, Dwell: 1e-3,
					Maximizes: []regulator.Defect{regulator.Df1, regulator.Df16}},
			},
		},
	}
	s := Table3Report(res).String()
	for _, want := range []string{"Table III", "1.0V", "0.74*VDD", "Df16", "1ms"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table3 report missing %q:\n%s", want, s)
		}
	}
	if len(Table3Paper()) != 3 {
		t.Error("paper Table III has 3 iterations")
	}
}

func TestMonteCarlo(t *testing.T) {
	cond := process.Condition{Corner: process.FS, VDD: 1.1, TempC: 125}
	res := MonteCarloWorkers(cond, 24, 7, 0)
	if len(res.DRV) != 24 {
		t.Fatalf("got %d samples", len(res.DRV))
	}
	// Sorted, bounded by the deterministic worst case.
	worst := NewWorstDRVForTest(cond)
	for i, d := range res.DRV {
		if i > 0 && d < res.DRV[i-1] {
			t.Fatal("distribution not sorted")
		}
		if d > worst+5e-3 {
			t.Errorf("sample %g exceeds the 6σ worst case %g", d, worst)
		}
	}
	if !(res.Quantile(0.5) <= res.Quantile(0.99) && res.Quantile(0.99) <= res.Max()) {
		t.Error("quantiles out of order")
	}
	s := MonteCarloReport(res, worst).String()
	if !strings.Contains(s, "sampled max") {
		t.Errorf("report:\n%s", s)
	}
}
