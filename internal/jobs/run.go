package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"sramtest/internal/charac"
	"sramtest/internal/diag"
	"sramtest/internal/engine"
	_ "sramtest/internal/engine/spicebe"   // default backend
	_ "sramtest/internal/engine/surrogate" // spec engine "surrogate"
	_ "sramtest/internal/engine/tiered"    // spec engine "tiered"
	"sramtest/internal/exp"
	"sramtest/internal/faultmap"
	"sramtest/internal/march"
	"sramtest/internal/noisescan"
	"sramtest/internal/process"
	"sramtest/internal/regulator"
	"sramtest/internal/report"
	"sramtest/internal/testflow"
	"sramtest/internal/yield"
)

// Run executes a job spec and returns exactly the bytes the matching CLI
// writes to stdout (stderr progress chatter excluded):
//
//	charac   ≡ defectchar [-full] [-defect N] [-cs N] [-csv]
//	exp      ≡ drv -mc N [-csv]
//	testflow ≡ flow [-defects ...] [-no-vdd-constraint] [-csv]
//	diag     ≡ diagnose build [-defects ...] [-cs ...] [-decades ...]
//	           [-base-only] -o -
//
// This byte-identity holds at any worker count — it is the sweep
// engine's determinism contract, and the reason results can be cached by
// spec alone. ctx cancels the underlying sweeps promptly; a
// sweep.Progress carried by ctx (sweep.ContextWithProgress) is tallied
// while the job runs.
func Run(ctx context.Context, spec Spec) ([]byte, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	// The spec names its backend explicitly ("" ≡ spice after
	// normalization); the process default is deliberately not consulted,
	// so a store key always maps to one engine regardless of daemon
	// configuration.
	eng, err := engine.Resolve(spec.Engine)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	switch spec.Kind {
	case KindCharac:
		return runCharac(ctx, spec, eng)
	case KindExp:
		return runExp(ctx, spec)
	case KindTestFlow:
		return runTestFlow(ctx, spec, eng)
	case KindDiag:
		return runDiag(ctx, spec, eng)
	case KindYield:
		return runYield(ctx, spec)
	case KindFaultMap:
		return runFaultMap(ctx, spec)
	case KindNoiseScan:
		return runNoiseScan(ctx, spec)
	}
	return nil, fmt.Errorf("%w: unknown kind %q", ErrBadSpec, spec.Kind)
}

// specCriterion resolves the spec's retention criterion. Like the
// engine, the spec names it explicitly ("" ≡ static after
// normalization) and the process default is deliberately not consulted,
// so a store key always maps to one criterion regardless of daemon
// configuration.
func specCriterion(spec Spec) (engine.Criterion, error) {
	switch spec.Criterion {
	case "":
		return engine.Static{}, nil
	case "noise":
		return engine.NewNoiseCriterion(spec.Noise.params()), nil
	}
	return nil, fmt.Errorf("%w: unknown criterion %q", ErrBadSpec, spec.Criterion)
}

// runNoiseScan measures the flip-probability curve at the fixed
// Monte-Carlo condition. A whole scan renders the EXP-NS summary and
// curve tables (identical to `noisescan` CLI output); a shard job
// (Shards > 1) emits the mergeable noisescan.Partial JSON artifact the
// cluster fan-out reassembles with noisescan.MergePartials. Like
// KindExp and KindYield, the scan drives the cell netlist directly and
// ignores the engine field.
func runNoiseScan(ctx context.Context, spec Spec) ([]byte, error) {
	ns := spec.NoiseScan
	p := noisescan.Params{
		CaseStudy: ns.CaseStudy,
		Cond:      mcCondition,
		Points:    ns.Points,
		Below:     ns.Below,
		Above:     ns.Above,
		Noise:     spec.Noise.params(),
		Shards:    ns.Shards,
		Shard:     ns.Shard,
	}
	if ns.Shards > 1 {
		part, err := noisescan.ShardPartial(ctx, p)
		if err != nil {
			return nil, err
		}
		return json.Marshal(part)
	}
	res, err := noisescan.Scan(ctx, p)
	if err != nil {
		return nil, err
	}
	return emit(spec.CSV, noisescan.Summary(res), noisescan.Curve(res))
}

// runFaultMap generates the correlated fault-map corpus at the fixed
// Monte-Carlo condition and evaluates March coverage against it. A
// whole run renders the EXP-FM summary and coverage tables (identical
// to `faultmap` CLI output); a shard job (Shards > 1) emits the
// mergeable faultmap.Partial JSON artifact the cluster fan-out
// reassembles with faultmap.MergePartials. Like KindExp and KindYield,
// the corpus samples the cell model directly and ignores the engine
// field (the sub-spec's BIST switch selects the coverage evaluator, not
// the simulation backend).
func runFaultMap(ctx context.Context, spec Spec) ([]byte, error) {
	f := spec.FaultMap
	p := faultmap.Params{
		Maps:   f.Maps,
		Seed:   f.Seed,
		Cond:   mcCondition,
		Vref:   f.Vref,
		Defect: f.Defect,
		Shards: f.Shards,
		Shard:  f.Shard,
	}
	// A noise criterion tightens the per-bit DRF marginals through the
	// Model seam; static jobs keep the default memo-free CellModel.
	if spec.Criterion == "noise" {
		crit, err := specCriterion(spec)
		if err != nil {
			return nil, err
		}
		p.Model = engine.CriterionModel{Crit: crit}
	}
	for _, name := range f.Tests {
		t, ok := march.ByName(name)
		if !ok {
			return nil, fmt.Errorf("%w: unknown March test %q", ErrBadSpec, name)
		}
		p.Tests = append(p.Tests, t)
	}
	if f.BIST {
		p.Engine = faultmap.EngineBIST
	}
	if f.RandomOps > 0 {
		p.Random = []march.RandomSpec{faultmap.DefaultRandom(f.RandomOps, f.Seed)}
	}
	if f.Shards > 1 {
		part, err := faultmap.ShardPartial(ctx, p)
		if err != nil {
			return nil, err
		}
		return json.Marshal(part)
	}
	res, err := faultmap.Estimate(ctx, p)
	if err != nil {
		return nil, err
	}
	return emit(spec.CSV, faultmap.Summary(res), faultmap.Coverage(res))
}

// runYield estimates the rare-event retention yield at the fixed
// Monte-Carlo condition. A whole estimate renders the EXP-YD table
// (identical to `yield` CLI output); a shard job (Shards > 1) emits the
// mergeable yield.Partial JSON artifact the cluster fan-out reassembles
// with yield.MergePartials. Like KindExp, the estimate samples the cell
// model directly and ignores the engine field.
func runYield(ctx context.Context, spec Spec) ([]byte, error) {
	y := spec.Yield
	est, err := yield.New(y.Method)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	p := yield.Params{
		Cond:    mcCondition,
		Vref:    y.Vref,
		Samples: y.Samples,
		Seed:    y.Seed,
		Shards:  y.Shards,
		Shard:   y.Shard,
	}
	// A noise criterion tightens the failure boundary through the Model
	// seam; the static criterion keeps the default memo-free CellModel,
	// so static jobs stay byte-identical to pre-criterion runs.
	if spec.Criterion == "noise" {
		crit, err := specCriterion(spec)
		if err != nil {
			return nil, err
		}
		p.Model = engine.CriterionModel{Crit: crit}
	}
	if y.Shards > 1 {
		part, err := est.Partial(ctx, p)
		if err != nil {
			return nil, err
		}
		return json.Marshal(part)
	}
	res, err := est.Estimate(ctx, p)
	if err != nil {
		return nil, err
	}
	return emit(spec.CSV, yield.Report(res))
}

// runDiag builds the fault dictionary; the job bytes are the versioned
// JSON artifact, identical to `diagnose build -o -`.
func runDiag(ctx context.Context, spec Spec, eng engine.Engine) ([]byte, error) {
	opt := diag.DefaultOptions()
	opt.Engine = eng
	opt.Defects = toDefects(spec.Diag.Defects)
	all := process.Table1CaseStudies()
	css := make([]process.CaseStudy, 0, 2*len(spec.Diag.CaseStudies))
	for _, n := range spec.Diag.CaseStudies {
		css = append(css, all[2*(n-1)], all[2*(n-1)+1])
	}
	opt.CaseStudies = css
	opt.Decades = spec.Diag.Decades
	opt.BaseOnly = spec.Diag.BaseOnly
	opt.PointsPerDecade = spec.Diag.PointsPerDecade
	opt.Ctx = ctx
	d, err := diag.Build(opt)
	if err != nil {
		return nil, err
	}
	return d.Encode()
}

func runCharac(ctx context.Context, spec Spec, eng engine.Engine) ([]byte, error) {
	crit, err := specCriterion(spec)
	if err != nil {
		return nil, err
	}
	opt := charac.DefaultOptions()
	opt.Engine = eng
	opt.Criterion = crit
	if !spec.Charac.Full {
		opt.Conditions = charac.ReducedGrid()
	}
	opt.Ctx = ctx

	defects := toDefects(spec.Charac.Defects)
	all := charac.Table2CaseStudies()
	css := make([]process.CaseStudy, 0, len(spec.Charac.CaseStudies))
	for _, n := range spec.Charac.CaseStudies {
		css = append(css, all[n-1])
	}

	results, err := charac.CharacterizeAll(defects, css, opt)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	t := exp.Table2Report(results)
	if spec.CSV {
		err = t.WriteCSV(&buf)
	} else {
		err = t.Write(&buf)
	}
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// mcCondition is cmd/drv's fixed Monte-Carlo condition.
var mcCondition = process.Condition{Corner: process.FS, VDD: 1.1, TempC: 125}

func runExp(ctx context.Context, spec Spec) ([]byte, error) {
	res, err := exp.MonteCarloCtx(ctx, mcCondition, spec.Exp.Samples, spec.Exp.Seed, 0)
	if err != nil {
		return nil, err
	}
	return emit(spec.CSV, exp.MonteCarloReport(res, exp.NewWorstDRVForTest(mcCondition)))
}

func runTestFlow(ctx context.Context, spec Spec, eng engine.Engine) ([]byte, error) {
	mopt := testflow.DefaultMeasureOptions()
	mopt.Engine = eng
	mopt.Defects = toDefects(spec.TestFlow.Defects)
	mopt.Ctx = ctx

	sens, err := testflow.Measure(mopt)
	if err != nil {
		return nil, err
	}
	cond := process.Condition{Corner: mopt.Corner, VDD: 1.1, TempC: mopt.TempC}
	worst := eng.DRV1(mopt.CS.Variation, cond)
	oopt := testflow.DefaultOptimizeOptions(worst)
	oopt.RequireAllVDD = !spec.TestFlow.NoVDDConstraint
	flow := testflow.Optimize(sens, oopt)

	var buf bytes.Buffer
	res := exp.Table3Result{WorstDRV: worst, Sensitivities: sens, Flow: flow}
	t := exp.Table3Report(res)
	if spec.CSV {
		err = t.WriteCSV(&buf)
	} else {
		err = t.Write(&buf)
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(&buf)
	if len(flow.Uncoverable) > 0 {
		fmt.Fprintf(&buf, "defects undetectable at every eligible condition: %v\n", flow.Uncoverable)
	}
	if !spec.CSV {
		if err := exp.SensitivityReport(sens, mopt.Defects).Write(&buf); err != nil {
			return nil, err
		}
		fmt.Fprintln(&buf)
	}
	if err := exp.WriteTestTime(&buf, exp.TestTime(flow)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// emit renders tables exactly as the matching CLI prints them
// (report.Emit), so a job's bytes equal the CLI run's.
func emit(csv bool, tables ...*report.Table) ([]byte, error) {
	var buf bytes.Buffer
	if err := report.Emit(&buf, csv, tables...); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func toDefects(ns []int) []regulator.Defect {
	out := make([]regulator.Defect, len(ns))
	for i, n := range ns {
		out[i] = regulator.Defect(n)
	}
	return out
}
