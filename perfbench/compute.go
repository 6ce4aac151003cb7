package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"sramtest/internal/cell"
	"sramtest/internal/charac"
	"sramtest/internal/engine"
	"sramtest/internal/faultmap"
	"sramtest/internal/march"
	"sramtest/internal/num"
	"sramtest/internal/process"
	"sramtest/internal/regulator"
	"sramtest/internal/sweep"
	"sramtest/internal/yield"
)

// opSeed derives op i's program seed from the workload seed. It is never
// 0, which the program reads as "use the default seed".
func opSeed(seed int64, i int) int64 {
	s := sweep.ChunkSeed(seed, i) & math.MaxInt64
	if s == 0 {
		s = 1
	}
	return s
}

// opsFor sizes a fixed op list: the number of ops of nominal cost opS
// seconds that fill the nominal run, at least min.
func opsFor(seconds int, opS float64, min int) int {
	n := int(math.Round(float64(seconds) / opS))
	if n < min {
		n = min
	}
	return n
}

// sequential runs ops one by one under pprof labels, spans and counter
// snapshots.
func sequential(name string, n int, tr *tracer, op func(i int) ([]byte, error), rec func(int, time.Duration, []byte, error)) {
	for i := 0; i < n; i++ {
		labeled(name, i, func() {
			tr.opCounters(i, func() {
				id := tr.begin(name+".op", i, -1)
				t0 := time.Now()
				res, err := op(i)
				lat := time.Since(t0)
				tr.end(id)
				rec(i, lat, res, err)
			})
		})
	}
}

// ---- table2 ----

// table2Excluded are the four costliest flip-time cells (3.8–6.8 s each
// on a 2-core Xeon VM); leaving them out keeps one pass near 33 s, and the
// 13 flip-time cells left keep the ten-sample tail inside the slow mode.
var table2Excluded = map[regulator.Defect]bool{
	regulator.Df1: true, regulator.Df2: true, regulator.Df3: true, regulator.Df7: true,
}

type t2cell struct {
	d  regulator.Defect
	cs int // index into charac.Table2CaseStudies (CS1-1..CS5-1)
}

// table2 characterizes Table II cells at fs/1.0 V/125 °C: one op is one
// charac.CharacterizeDefect call. Each pass covers every DRF candidate ×
// CS1-1..CS5-1 except table2Excluded's CS1-1 cells, in a seeded order,
// from a reset point memo.
type table2 struct {
	cells []t2cell // op list, pass after pass
	per   int      // cells per pass
	css   []process.CaseStudy
	opt   charac.Options
	got   []charac.Result
}

func table2Cond() process.Condition {
	return process.Condition{Corner: process.FS, VDD: 1.0, TempC: 125}
}

func newTable2(seed int64, seconds int) *table2 {
	var base []t2cell
	for _, d := range regulator.DRFCandidates() {
		for cs := 0; cs < 5; cs++ {
			if cs == 0 && table2Excluded[d] {
				continue
			}
			base = append(base, t2cell{d, cs})
		}
	}
	w := &table2{per: len(base), css: charac.Table2CaseStudies()}
	for p := 0; p < opsFor(seconds, 25, 1); p++ {
		rng := rand.New(rand.NewSource(sweep.ChunkSeed(seed, p)))
		for _, j := range rng.Perm(len(base)) {
			w.cells = append(w.cells, base[j])
		}
	}
	w.opt = charac.DefaultOptions()
	w.opt.Conditions = []process.Condition{table2Cond()}
	w.opt.Workers = 1
	return w
}

func (w *table2) rounds() int { return 1 }

func (w *table2) ops() int { return len(w.cells) }

func (w *table2) opKey(i int) string {
	return fmt.Sprintf("%s/%s", w.cells[i].d, w.css[w.cells[i].cs].Name)
}

// setUp warms the five case-study DRV anchors from a cold oracle memo.
func (w *table2) setUp() error {
	engine.ResetDRVCache()
	charac.ResetCache()
	for _, cs := range w.css {
		engine.CachedDRV1(cs.Variation, table2Cond())
		engine.CachedDRV0(cs.Variation, table2Cond())
	}
	return nil
}

func (w *table2) drive(_ int, tr *tracer, rec func(int, time.Duration, []byte, error)) {
	w.got = make([]charac.Result, len(w.cells))
	sequential("table2", len(w.cells), tr, func(i int) ([]byte, error) {
		if i%w.per == 0 {
			charac.ResetCache()
		}
		c := w.cells[i]
		res, err := charac.CharacterizeDefect(c.d, w.css[c.cs], w.opt)
		if err != nil {
			return nil, err
		}
		w.got[i] = res
		return []byte(fmt.Sprintf("%s %s %s %x\n", c.d, w.css[c.cs].Name, res.Cond, math.Float64bits(res.MinRes))), nil
	}, rec)
}

// check enforces the case-study ladder of BenchmarkTable2 within each
// pass: a defect's minimal resistance never decreases from CS1-1 to
// CS4-1. A violation marks every op of that defect in the pass.
func (w *table2) check(results [][]byte) []error {
	errs := make([]error, len(results))
	for p := 0; p*w.per < len(w.cells); p++ {
		lo, hi := p*w.per, (p+1)*w.per
		minRes := map[regulator.Defect]*[5]float64{}
		for i := lo; i < hi; i++ {
			c := w.cells[i]
			if minRes[c.d] == nil {
				minRes[c.d] = &[5]float64{math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()}
			}
			r := w.got[i].MinRes
			if results[i] != nil && !(r > 0) {
				errs[i] = fmt.Errorf("%s/%s: minimal resistance %g", c.d, w.css[c.cs].Name, r)
			}
			minRes[c.d][c.cs] = r
		}
		for i := lo; i < hi; i++ {
			c := w.cells[i]
			ladder := minRes[c.d]
			prev := 0.0
			for cs := 0; cs < 4; cs++ {
				if math.IsNaN(ladder[cs]) {
					continue // excluded cell
				}
				if ladder[cs] < prev && errs[i] == nil {
					errs[i] = fmt.Errorf("%s: CS ladder violated at %s", c.d, w.css[cs].Name)
				}
				prev = ladder[cs]
			}
		}
	}
	return errs
}

func (w *table2) close() {}

// ---- yield ----

// yieldSamples is the fixed per-op budget: 64 importance samples (about
// 209 exact DRV solves) at fs/1.1 V/125 °C and Vref 0.50 V.
const yieldSamples = 64

func mcCond() process.Condition {
	return process.Condition{Corner: process.FS, VDD: 1.1, TempC: 125}
}

// warmCell solves the nominal cell's DRV once, filling the device
// layer's lazily built tables before the first timed op.
func warmCell() { cell.New(process.Variation{}, mcCond()).DRV1() }

// yieldW runs importance-sampling yield estimates: one op is one
// yield.Estimator.Estimate with its own seed.
type yieldW struct {
	seeds []int64
	est   yield.Estimator
	got   []yield.Result
}

func newYield(seed int64, seconds int) *yieldW {
	w := &yieldW{}
	for i := 0; i < opsFor(seconds, 5.5, 2); i++ {
		w.seeds = append(w.seeds, opSeed(seed, i))
	}
	return w
}

func (w *yieldW) rounds() int { return 1 }

func (w *yieldW) ops() int { return len(w.seeds) }

func (w *yieldW) opKey(i int) string { return fmt.Sprintf("seed=%d", w.seeds[i]) }

func (w *yieldW) setUp() (err error) {
	w.est, err = yield.New(yield.MethodIS)
	warmCell()
	return err
}

func (w *yieldW) drive(_ int, tr *tracer, rec func(int, time.Duration, []byte, error)) {
	w.got = make([]yield.Result, len(w.seeds))
	var exact int64
	sequential("yield", len(w.seeds), tr, func(i int) ([]byte, error) {
		res, err := w.est.Estimate(context.Background(), yield.Params{
			Cond: mcCond(), Vref: 0.50, Samples: yieldSamples, Seed: w.seeds[i], Workers: 1,
		})
		if err != nil {
			return nil, err
		}
		w.got[i] = res
		exact += res.ExactSolves
		return []byte(fmt.Sprintf("%+v\n", res)), nil
	}, rec)
	tr.set("yield.exact_solves_per_op", float64(exact)/float64(len(w.seeds)))
}

// check requires an estimate that spent exact solves, observed the
// tail (0 < P < 1 inside its own CI), and whose 95% CI admits a tail at
// least 5σ deep. The point estimate alone is not held to 5σ: with 64
// samples the effective sample size can drop to about 4, and one such
// seed read 4.54σ with a CI of [0, 6e-6] around the 5.4σ truth.
func (w *yieldW) check(results [][]byte) []error {
	errs := make([]error, len(results))
	for i, r := range w.got {
		if results[i] == nil {
			continue
		}
		if r.ExactSolves <= 0 || !(r.P > 0 && r.P < 1) || !(r.CILo <= r.P && r.P <= r.CIHi) || !(r.CILo <= num.NormTail(5)) {
			errs[i] = fmt.Errorf("seed %d: P %.3g in CI [%.3g, %.3g] with %d exact solves, want 0 < P < 1 inside a CI reaching below Φ̄(5) and exact solves > 0",
				w.seeds[i], r.P, r.CILo, r.CIHi, r.ExactSolves)
		}
	}
	return errs
}

func (w *yieldW) close() {}

// ---- faultmap ----

// faultMapMaps is the per-op corpus size: enough maps that the March
// executor and array model outweigh the 48-solve DRV calibration.
const faultMapMaps = 128

// faultMapW evaluates March m-LZ and March C- over correlated fault-map
// corpora: one op is one faultmap.Estimate with its own corpus seed.
//
// The corpora are the same for every workload seed, which only orders
// them. A corpus's cost follows its clustered static defects, and two
// 2-corpus runs with different corpus seeds took 16.8 s and 23.7 s, so
// corpora drawn from the workload seed would make the spread across
// seeded runs measure the inputs instead of the program.
type faultMapW struct {
	seeds []int64
	tests []march.Test
	got   []faultmap.Result
}

func newFaultMap(seed int64, seconds int) *faultMapW {
	w := &faultMapW{}
	n := opsFor(seconds, 10, 1)
	for _, i := range rand.New(rand.NewSource(seed)).Perm(n) {
		w.seeds = append(w.seeds, opSeed(defaultSeed, i))
	}
	return w
}

func (w *faultMapW) rounds() int { return 1 }

func (w *faultMapW) ops() int { return len(w.seeds) }

func (w *faultMapW) opKey(i int) string { return fmt.Sprintf("seed=%d", w.seeds[i]) }

func (w *faultMapW) setUp() error {
	w.tests = []march.Test{march.MarchMLZ(), march.MarchCMinus()}
	warmCell()
	return nil
}

func (w *faultMapW) drive(_ int, tr *tracer, rec func(int, time.Duration, []byte, error)) {
	w.got = make([]faultmap.Result, len(w.seeds))
	sequential("faultmap", len(w.seeds), tr, func(i int) ([]byte, error) {
		res, err := faultmap.Estimate(context.Background(), faultmap.Params{
			Maps: faultMapMaps, Seed: w.seeds[i], Cond: mcCond(), Tests: w.tests, Workers: 1,
		})
		if err != nil {
			return nil, err
		}
		w.got[i] = res
		return []byte(fmt.Sprintf("%+v\n", res)), nil
	}, rec)
}

// check requires the paper's coverage split on a corpus with retention
// faults: m-LZ catches every DRF bit, the dwell-free March C- none.
func (w *faultMapW) check(results [][]byte) []error {
	errs := make([]error, len(results))
	for i, r := range w.got {
		if results[i] == nil {
			continue
		}
		drf := r.ByClass[faultmap.ClassDRF0] + r.ByClass[faultmap.ClassDRF1]
		mlz, ok1 := r.Test("March m-LZ")
		cm, ok2 := r.Test("March C-")
		if drf == 0 || !ok1 || !ok2 {
			errs[i] = fmt.Errorf("seed %d: %d DRF bits, tests present %v/%v", w.seeds[i], drf, ok1, ok2)
			continue
		}
		mlzDRF, _ := mlz.GroupCoverage(r.ByClass, "DRF")
		cmDRF, _ := cm.GroupCoverage(r.ByClass, "DRF")
		if mlzDRF != 1 || cmDRF != 0 {
			errs[i] = fmt.Errorf("seed %d: DRF coverage m-LZ %.4f, C- %.4f, want 1 and 0", w.seeds[i], mlzDRF, cmDRF)
		}
	}
	return errs
}

func (w *faultMapW) close() {}
