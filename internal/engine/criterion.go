package engine

import (
	"math"

	"sramtest/internal/cell"
	"sramtest/internal/process"
)

// FlipActivationWidth is the voltage window above a cell's DRV in which
// it already draws partial crowbar current (its noise margin is thin and
// the internal nodes wander toward midpoint). Shared by the exact
// backend's damped fixed point and the tiered screen's negligibility
// bound, so both sides of the seam model the same physics.
const FlipActivationWidth = 0.015 // V

// CrowbarBreak is the extra-load threshold below which the DS fixed
// point exits on its first iteration: a load this small cannot move the
// µA-scale operating point (engine/spicebe mirrors the pre-seam charac
// behaviour exactly).
const CrowbarBreak = 0.5e-6 // A

// crowbarScreenLimit is the tiered screen's version of CrowbarBreak: a
// pass decision is only taken from the band when the worst-case
// first-iteration load over the whole band stays below this,
// guaranteeing the exact backend would have exited its fixed point with
// the no-load rail the band bounds. The band itself already carries the
// rail uncertainty (the load is bounded over the whole band), so any
// value below CrowbarBreak is sound; the small gap absorbs the load
// model's own floating-point wiggle.
const crowbarScreenLimit = 0.49e-6 // A

// Criterion is the pluggable retention-decision seam: given a settled
// deep-sleep rail, does the cell lose its datum? The historical decision
// — below the static DRV and flipping within the dwell — is the Static
// criterion; the noise criterion (NewNoiseCriterion) tightens the
// threshold with stochastic transient ensembles. Everything that is NOT
// the lose/keep decision itself (crowbar activation, the DS fixed
// point's exit rule, the band-screen soundness argument) stays anchored
// on the static DRV regardless of criterion, so the exact backend's
// operating points — and with them every warm-start chain — are
// byte-identical across criteria.
//
// Implementations are immutable after construction and safe for
// concurrent use; the Name is part of every memo and store key that
// caches criterion-dependent results.
type Criterion interface {
	// Name identifies the criterion, including any parameters that change
	// its answers ("static", "noise.v1(...)").
	Name() string
	// DRV1 is the criterion's effective data-retention voltage for a
	// stored '1': the lowest rail at which the datum survives the
	// criterion's retention model. Never below the static oracle's value.
	DRV1(v process.Variation, cond process.Condition) float64
	// DRV0 is the stored-'0' twin of DRV1.
	DRV0(v process.Variation, cond process.Condition) float64
	// LostDC decides the DC-defect DRF criterion at a settled rail v for
	// the cell bundle c. Must be monotone: a lower rail is never safer.
	LostDC(c *CellCrit, v, dwell float64) bool
	// MaxTighten bounds DRV1 − static DRV1 over all variations and
	// conditions (0 for the static criterion). The band screens use it as
	// a conservative noise margin: rails at least MaxTighten above the
	// static DRV can be decided without running a single ensemble.
	MaxTighten() float64
}

// Static is the paper's original DRF criterion: a datum is lost when the
// settled rail sits below the static DRV (SNM → 0) and the flip
// completes within the DS dwell. It is what a nil criterion means and the
// identity element of the seam — a Static-criterion run is byte-
// identical to the pre-seam code at every layer.
type Static struct{}

// Name implements Criterion.
func (Static) Name() string { return "static" }

// DRV1 implements Criterion via the process-wide static oracle memo.
func (Static) DRV1(v process.Variation, cond process.Condition) float64 {
	return CachedDRV1(v, cond)
}

// DRV0 implements Criterion.
func (Static) DRV0(v process.Variation, cond process.Condition) float64 {
	return CachedDRV0(v, cond)
}

// LostDC implements Criterion: below the static DRV and flipping within
// the dwell.
func (Static) LostDC(c *CellCrit, v, dwell float64) bool {
	if v >= c.DRV1 {
		return false
	}
	return c.Cell.FlipTime(v, dwell) <= dwell
}

// MaxTighten implements Criterion: the static criterion never tightens.
func (Static) MaxTighten() float64 { return 0 }

// CellCrit caches the cell-side quantities of the DRF criterion for one
// (case study, condition): the 6T model, its static DRV, and the
// pluggable decision criterion. Both the exact backend and the tiered
// screen evaluate the same object, so a screened decision and an
// escalated one can never disagree on the cell's thresholds.
//
// DRV1 is always the STATIC threshold: the crowbar activation and the
// solver-side fixed-point behaviour hang off it and must not move when
// the decision criterion changes. The criterion's (possibly tightened)
// threshold is EffDRV1.
type CellCrit struct {
	CS   process.CaseStudy
	Cell *cell.Cell
	Cond process.Condition
	Crit Criterion
	DRV1 float64 // static DRV of the stored-'1' state at this condition
}

// NewCellCrit builds the criterion bundle, with the static DRV taken
// from the process-wide oracle memo. A nil crit resolves to the process
// default criterion.
func NewCellCrit(cs process.CaseStudy, cond process.Condition, crit Criterion) *CellCrit {
	return &CellCrit{
		CS:   cs,
		Cell: cell.New(cs.Variation, cond),
		Cond: cond,
		Crit: PickCriterion(crit),
		DRV1: CachedDRV1(cs.Variation, cond),
	}
}

// LostDC decides the DC-defect DRF criterion at a settled rail v through
// the pluggable criterion.
func (c *CellCrit) LostDC(v, dwell float64) bool {
	return c.Crit.LostDC(c, v, dwell)
}

// EffDRV1 returns the criterion's effective stored-'1' threshold —
// equal to the static DRV1 field for the Static criterion, tightened
// upward for the noise criterion. Criterion implementations memoize, so
// repeated calls are cheap.
func (c *CellCrit) EffDRV1() float64 {
	return c.Crit.DRV1(c.CS.Variation, c.Cond)
}

// Activation is the soft flip-activation factor at rail v (1 well below
// the DRV, 0 well above). Anchored on the static DRV by design: it
// models the cell's DC crowbar draw, which transient noise does not
// change.
func (c *CellCrit) Activation(v float64) float64 {
	return 1.0 / (1.0 + math.Exp((v-c.DRV1)/FlipActivationWidth*4))
}

// CrowbarNext is the first fixed-point estimate of the case study's
// extra crowbar load at rail v: cells × per-cell crowbar × activation.
func (c *CellCrit) CrowbarNext(v float64) float64 {
	return float64(c.CS.Cells) * c.Cell.CrowbarCurrent(v) * c.Activation(v)
}

// crowbarQuiet reports whether the worst-case first-iteration crowbar
// load over the band is below the fixed point's own exit threshold, so
// the exact backend would break out with the no-load rail the band
// bounds. The activation is monotone decreasing in the rail (worst at
// Lo); the per-cell crowbar current is smooth, so its band extremes
// bound it.
func (c *CellCrit) crowbarQuiet(band Rail) bool {
	ib := math.Max(c.Cell.CrowbarCurrent(band.Lo), c.Cell.CrowbarCurrent(band.Hi))
	return float64(c.CS.Cells)*ib*c.Activation(band.Lo) < crowbarScreenLimit
}

// DecideLostDC screens the DC DRF criterion against a rail band without
// solving. It returns (lost, true) only when the exact backend would
// provably agree for any true no-load rail inside the band:
//
//   - Pass is safe without consulting the criterion at all when the
//     band's bottom clears the static DRV by the criterion's MaxTighten
//     margin (no criterion can declare a loss up there) AND the crowbar
//     load cannot move the operating point. For the noise criterion this
//     conservative-margin branch is what lets the surrogate and tiered
//     backends skip transient ensembles on the vast majority of clearly
//     passing points.
//   - Fail is safe when the band's TOP already loses the datum: the
//     criterion is monotone in the rail (a lower rail flips no slower),
//     and the exact backend's crowbar load only pulls the rail further
//     down from the no-load value the band bounds.
//   - Pass is safe when the band's BOTTOM retains the datum (the full
//     criterion, not just the threshold: marginally below the DRV the
//     flip outlasts the dwell, and the flip time is monotone in the
//     rail) AND the crowbar condition above holds.
//
// Anything else — the band straddles the threshold, or the crowbar load
// could move the operating point — is left undecided for escalation.
func (c *CellCrit) DecideLostDC(band Rail, dwell float64) (lost, decided bool) {
	if mt := c.Crit.MaxTighten(); mt > 0 && band.Lo > 0 && band.Lo >= c.DRV1+mt {
		if c.crowbarQuiet(band) {
			return false, true
		}
		return false, false
	}
	if c.LostDC(band.Hi, dwell) {
		return true, true
	}
	if band.Lo > 0 && !c.LostDC(band.Lo, dwell) && c.crowbarQuiet(band) {
		return false, true
	}
	return false, false
}

// DecideSurvives screens the retention criterion (the behavioral SRAM's
// Survives query, which has no crowbar feedback: the electrical
// retention model solves the plain no-load operating point) against a
// rail band. drv is the static DRV of the mirrored-as-needed cell. It
// returns (survives, true) only when both band edges agree.
//
// The behavioral March/BIST retention path deliberately stays on the
// static criterion: diagnosis dictionaries and coverage corpora are
// static-calibrated artifacts, and the noise seam reaches fault maps
// through their DRF marginals (faultmap.Model) instead.
func DecideSurvives(cl *cell.Cell, drv float64, band Rail, dwell float64) (survives, decided bool) {
	if dwell <= 0 {
		if band.Lo >= drv {
			return true, true
		}
		if band.Hi < drv {
			return false, true
		}
		return false, false
	}
	// RetainsFor is monotone in the rail: a higher rail never flips
	// faster. Decide only when both edges land on the same side. A
	// band floored at ground (near the open-line end) cannot certify
	// retention, and the cell model has no VTC at vcc = 0.
	if band.Lo > 0 && cl.RetainsFor(band.Lo, dwell) {
		return true, true
	}
	if !cl.RetainsFor(band.Hi, dwell) {
		return false, true
	}
	return false, false
}

// CriterionModel adapts a Criterion to the DRV-model seams of the
// consumers that sample thresholds directly — yield.Params.Model and
// faultmap.Params.Model both accept exactly this shape — so the noise
// criterion tightens the yield boundary and the fault-map DRF marginals
// through one adapter.
type CriterionModel struct {
	Crit Criterion
}

// DRV1 returns the criterion's effective stored-'1' threshold.
func (m CriterionModel) DRV1(v process.Variation, cond process.Condition) float64 {
	return m.Crit.DRV1(v, cond)
}

// PickCriterion returns c when non-nil, else Static — the paper's
// criterion. There is no process default: a caller wanting another
// criterion names it in its options. Sweep options use it to resolve
// their Criterion field.
func PickCriterion(c Criterion) Criterion {
	if c != nil {
		return c
	}
	return Static{}
}
