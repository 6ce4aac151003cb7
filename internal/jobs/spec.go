// Package jobs is the job layer of the sramd characterization service:
// a typed job spec with a canonical serialization (the content address
// of the result store), runners that execute the sweep products with
// bytes identical to the CLI tools, and an asynchronous manager
// with a bounded queue, per-job cancellation and timeouts, bounded
// retries, panic isolation, and polled sweep progress.
package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"

	"sramtest/internal/diag"
	"sramtest/internal/engine"
	"sramtest/internal/faultmap"
	"sramtest/internal/march"
	"sramtest/internal/noisescan"
	"sramtest/internal/regulator"
	"sramtest/internal/store"
	"sramtest/internal/yield"
)

// Kind selects which sweep product a job computes.
type Kind string

// The five job kinds, covering the repo's sweep products.
const (
	// KindCharac is the Table II defect characterization (cmd/defectchar).
	KindCharac Kind = "charac"
	// KindExp is the Monte-Carlo DRV distribution (cmd/drv -mc).
	KindExp Kind = "exp"
	// KindTestFlow is the optimized test flow (cmd/flow).
	KindTestFlow Kind = "testflow"
	// KindDiag is the fault-dictionary build (cmd/diagnose build).
	KindDiag Kind = "diag"
	// KindYield is the rare-event retention-yield estimate (cmd/yield).
	KindYield Kind = "yield"
	// KindFaultMap is the correlated fault-map coverage evaluation
	// (cmd/faultmap).
	KindFaultMap Kind = "faultmap"
	// KindNoiseScan is the flip-probability vs V_DD_DS scan under the
	// noise criterion's accelerated transient ensembles (cmd/noisescan).
	KindNoiseScan Kind = "noisescan"
)

// ErrBadSpec marks submission-time validation failures (HTTP 400).
var ErrBadSpec = errors.New("invalid job spec")

// Spec describes one characterization job. Exactly the sub-spec matching
// Kind must be set (a nil sub-spec of the selected kind is allowed and
// means "all defaults"). The JSON field order of this struct and its
// sub-specs IS the canonical serialization used as the result-store
// cache key — reordering or renaming fields invalidates every cached
// result, which is why spec_test.go pins the bytes with a golden file.
type Spec struct {
	Kind Kind `json:"kind"`
	// CSV selects the CLIs' -csv rendering for the tables. Table-less
	// kinds (diag, whose product is a JSON artifact) reject it.
	CSV bool `json:"csv,omitempty"`
	// Engine selects the simulation backend by registry name ("spice",
	// "surrogate", "tiered", or a versioned spelling like "tiered.v1").
	// Empty means the exact SPICE backend. Normalization canonicalizes to
	// the backend's versioned Name() — except "spice", which folds to the
	// empty spelling so pre-engine store keys stay valid. The engine is
	// part of the content address: the standalone surrogate is
	// approximate, so its results must never be served for an exact
	// request (spice and tiered produce identical bytes but are keyed
	// separately — cheap insurance over the equivalence contract).
	Engine   string        `json:"engine,omitempty"`
	Charac   *CharacSpec   `json:"charac,omitempty"`
	Exp      *ExpSpec      `json:"exp,omitempty"`
	TestFlow *TestFlowSpec `json:"testflow,omitempty"`
	Diag     *DiagSpec     `json:"diag,omitempty"`
	// Yield is appended after the original sub-specs: the canonical field
	// order is append-only (see the struct comment).
	Yield *YieldSpec `json:"yield,omitempty"`
	// FaultMap is appended after Yield (append-only field order).
	FaultMap *FaultMapSpec `json:"faultmap,omitempty"`
	// NoiseScan is appended after FaultMap (append-only field order).
	NoiseScan *NoiseScanSpec `json:"noisescan,omitempty"`
	// Criterion selects the retention-decision criterion for the
	// criterion-aware kinds (charac, yield, faultmap): "static" or
	// "noise". Empty means static; normalization folds "static" to the
	// empty spelling so every pre-criterion store key stays valid. The
	// criterion — and, for "noise", the explicit ensemble parameters
	// below — is part of the content address: a noise-tightened result
	// must never be served for a static request. Kinds whose artifacts
	// are static-calibrated by design (exp, testflow, diag) and the
	// noisescan kind (inherently noise) reject a non-static criterion.
	Criterion string `json:"criterion,omitempty"`
	// Noise overrides the noise-criterion ensemble parameters; nil means
	// the calibrated defaults. Only valid with criterion "noise" or kind
	// noisescan; normalization makes every field explicit so a default
	// and its explicit spelling share one cache key.
	Noise *NoiseSpec `json:"noise,omitempty"`
}

// CharacSpec parameterizes a Table II characterization, mirroring
// cmd/defectchar's flags.
type CharacSpec struct {
	// Full sweeps the 45-condition PVT grid (-full); default reduced.
	Full bool `json:"full,omitempty"`
	// Defects to characterize (1..32); empty = the 17 Table II defects.
	Defects []int `json:"defects,omitempty"`
	// CaseStudies restricts the Table II columns (1..5); empty = all.
	CaseStudies []int `json:"caseStudies,omitempty"`
}

// ExpSpec parameterizes a Monte-Carlo DRV job, mirroring cmd/drv -mc.
type ExpSpec struct {
	// Samples is the number of random cells (-mc N); must be >= 1.
	Samples int `json:"samples"`
	// Seed of the sharded RNG; 0 selects the CLI's fixed seed 2013.
	Seed int64 `json:"seed"`
}

// TestFlowSpec parameterizes a flow optimization, mirroring cmd/flow.
type TestFlowSpec struct {
	// Defects to measure (1..32); empty = the 17 Table II defects.
	Defects []int `json:"defects,omitempty"`
	// NoVDDConstraint drops the one-iteration-per-supply rule
	// (-no-vdd-constraint).
	NoVDDConstraint bool `json:"noVDDConstraint,omitempty"`
}

// DiagSpec parameterizes a fault-dictionary build, mirroring cmd/diagnose
// build. The job's bytes are the dictionary artifact itself (diag.Encode).
type DiagSpec struct {
	// Defects are the candidate injection sites (1..32); empty = the 17
	// DRF-capable Table II defects.
	Defects []int `json:"defects,omitempty"`
	// CaseStudies restricts the Table I scenarios by index (1..5, each
	// covering both stored-value sides CSx-1/CSx-0); empty = all five.
	CaseStudies []int `json:"caseStudies,omitempty"`
	// Decades are the candidate open resistances in Ω (> 0); empty = the
	// default decade grid 1 kΩ..100 MΩ.
	Decades []float64 `json:"decades,omitempty"`
	// BaseOnly skips the extra-condition signatures the adaptive refiner
	// needs, quartering the build cost.
	BaseOnly bool `json:"baseOnly,omitempty"`
	// PointsPerDecade, when > 1, subdivides every adjacent decade pair
	// into that many log-spaced steps and builds the fine grid by
	// anchor-and-bisect interpolation (diag.FineDecades) — the
	// fleet-scale dictionary. Appended after the original fields so
	// plain-grid specs keep their store keys.
	PointsPerDecade int `json:"pointsPerDecade,omitempty"`
}

// YieldSpec parameterizes a rare-event retention-yield estimate,
// mirroring cmd/yield's flags. The estimate runs at the fixed
// Monte-Carlo condition (FS, 1.1 V, 125 °C), like KindExp.
type YieldSpec struct {
	// Samples is the total sample budget across all shards; must be >= 1.
	Samples int `json:"samples"`
	// Seed of the sharded RNG; 0 selects the fixed seed 2013.
	Seed int64 `json:"seed"`
	// Vref is the retention reference voltage (V); 0 selects
	// yield.DefaultVref. Must not be negative.
	Vref float64 `json:"vref"`
	// Method selects the estimator ("is" or "blockade"); empty selects
	// the importance sampler and normalizes to its explicit name.
	Method string `json:"method"`
	// Shards/Shard select one shard of a cluster fan-out: the job covers
	// only the sample chunks with index ≡ Shard (mod Shards) and emits a
	// mergeable JSON partial (yield.Partial) instead of the report table.
	// Shards <= 1 normalizes to the omitted whole-estimate form.
	Shards int `json:"shards,omitempty"`
	Shard  int `json:"shard,omitempty"`
}

// FaultMapSpec parameterizes a correlated fault-map coverage evaluation,
// mirroring cmd/faultmap's flags. Like KindExp and KindYield, the corpus
// is generated at the fixed Monte-Carlo condition (FS, 1.1 V, 125 °C).
type FaultMapSpec struct {
	// Maps is the corpus size (total across all shards); 0 selects
	// faultmap.DefaultMaps.
	Maps int `json:"maps"`
	// Seed of the derived per-map rand streams; 0 selects the fixed seed
	// 2013.
	Seed int64 `json:"seed"`
	// Vref is the deep-sleep retention rail (V); 0 selects
	// faultmap.DefaultVref. Must not be negative.
	Vref float64 `json:"vref"`
	// Defect is the per-bit base probability of each static fault class;
	// 0 selects faultmap.DefaultDefect. Must not be negative.
	Defect float64 `json:"defect"`
	// Tests selects March algorithms by exact library name, evaluated
	// (and reported) in the given order; empty = the whole library. The
	// order is semantic — reorderings are distinct jobs — so it is
	// validated, not sorted.
	Tests []string `json:"tests,omitempty"`
	// RandomOps, when positive, adds the canonical dwelling
	// constrained-random stream of that many operations alongside the
	// March tests (faultmap.DefaultRandom).
	RandomOps int `json:"randomOps,omitempty"`
	// BIST evaluates through the compiled on-chip BIST engine instead of
	// the software March executor.
	BIST bool `json:"bist,omitempty"`
	// Shards/Shard select one shard of a cluster fan-out: the job covers
	// only the map chunks with index ≡ Shard (mod Shards) and emits a
	// mergeable JSON partial (faultmap.Partial) instead of the report
	// tables. Shards <= 1 normalizes to the omitted whole-corpus form.
	Shards int `json:"shards,omitempty"`
	Shard  int `json:"shard,omitempty"`
}

// NoiseScanSpec parameterizes a flip-probability scan, mirroring
// cmd/noisescan's flags. Like KindExp and KindYield, the scan runs at
// the fixed Monte-Carlo condition (FS, 1.1 V, 125 °C); the ensemble
// parameters come from the Spec-level Noise field.
type NoiseScanSpec struct {
	// CaseStudy is the Table I scenario index (1..5), scanned on its
	// stored-'1' side; 0 selects noisescan.DefaultCaseStudy (CS5).
	CaseStudy int `json:"caseStudy"`
	// Points is the rail-grid size (>= 2); 0 selects
	// noisescan.DefaultPoints.
	Points int `json:"points"`
	// Below/Above bound the scanned rails relative to the static DRV
	// (V); 0 selects the noisescan defaults.
	Below float64 `json:"below"`
	Above float64 `json:"above"`
	// Shards/Shard select one shard of a cluster fan-out: the job covers
	// only the rail points with index ≡ Shard (mod Shards) and emits a
	// mergeable JSON partial (noisescan.Partial) instead of the report
	// tables. Shards <= 1 normalizes to the omitted whole-scan form.
	Shards int `json:"shards,omitempty"`
	Shard  int `json:"shard,omitempty"`
}

// NoiseSpec mirrors engine.NoiseParams field for field, with JSON names
// pinned for the canonical serialization.
type NoiseSpec struct {
	Runs       int     `json:"runs"`
	Sigma      float64 `json:"sigma"`
	SlotDt     float64 `json:"slotDt"`
	Window     float64 `json:"window"`
	PFail      float64 `json:"pFail"`
	Tol        float64 `json:"tol"`
	MaxTighten float64 `json:"maxTighten"`
	Seed       int64   `json:"seed"`
}

// params converts the spec to engine ensemble parameters, filling the
// calibrated defaults into zero fields (a nil spec is all defaults).
func (n *NoiseSpec) params() engine.NoiseParams {
	p := engine.DefaultNoiseParams()
	if n == nil {
		return p
	}
	if n.Runs != 0 {
		p.Runs = n.Runs
	}
	if n.Sigma != 0 {
		p.Sigma = n.Sigma
	}
	if n.SlotDt != 0 {
		p.SlotDt = n.SlotDt
	}
	if n.Window != 0 {
		p.Window = n.Window
	}
	if n.PFail != 0 {
		p.PFail = n.PFail
	}
	if n.Tol != 0 {
		p.Tol = n.Tol
	}
	if n.MaxTighten != 0 {
		p.MaxTighten = n.MaxTighten
	}
	if n.Seed != 0 {
		p.Seed = n.Seed
	}
	return p
}

// noiseSpecOf spells ensemble parameters back as the explicit canonical
// sub-spec.
func noiseSpecOf(p engine.NoiseParams) *NoiseSpec {
	return &NoiseSpec{
		Runs:       p.Runs,
		Sigma:      p.Sigma,
		SlotDt:     p.SlotDt,
		Window:     p.Window,
		PFail:      p.PFail,
		Tol:        p.Tol,
		MaxTighten: p.MaxTighten,
		Seed:       p.Seed,
	}
}

// normalizeCriterion validates the Spec-level criterion/noise pair for
// the given kind and returns their canonical forms.
func normalizeCriterion(s Spec) (crit string, noise *NoiseSpec, err error) {
	critAware := s.Kind == KindCharac || s.Kind == KindYield || s.Kind == KindFaultMap
	switch s.Criterion {
	case "", "static":
		if s.Noise != nil && s.Kind != KindNoiseScan {
			return "", nil, fmt.Errorf("%w: noise params without criterion %q", ErrBadSpec, "noise")
		}
	case "noise":
		if !critAware {
			return "", nil, fmt.Errorf("%w: kind %q does not take criterion %q", ErrBadSpec, s.Kind, s.Criterion)
		}
	default:
		return "", nil, fmt.Errorf("%w: unknown criterion %q (have static, noise)", ErrBadSpec, s.Criterion)
	}
	if s.Criterion == "noise" || s.Kind == KindNoiseScan {
		p := s.Noise.params()
		if p.Seed == 0 {
			p.Seed = defaultSeed
		}
		if err := p.Validate(); err != nil {
			return "", nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		noise = noiseSpecOf(p)
	}
	if s.Criterion == "noise" {
		crit = "noise"
	}
	return crit, noise, nil
}

// maxRandomOps caps one job's random stream.
const maxRandomOps = 1 << 22

// maxPointsPerDecade caps the fine-grid subdivision of one dictionary
// build (the default six-decade ladder yields ~1.7e6 candidates at the
// cap, comfortably past the fleet-dictionary regime).
const maxPointsPerDecade = 2000

// defaultSeed is cmd/drv's hard-coded Monte-Carlo seed.
const defaultSeed = 2013

// Normalize validates s and returns its canonical form: defaults are
// made explicit (defect lists expanded, seed filled in) and lists are
// sorted and deduplicated, so every spelling of the same job serializes
// to the same bytes and lands on the same store key.
func (s Spec) Normalize() (Spec, error) {
	out := Spec{Kind: s.Kind, CSV: s.CSV}
	eng, err := engine.Resolve(s.Engine)
	if err != nil {
		return Spec{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if n := eng.Name(); n != "spice" {
		out.Engine = n
	}
	if out.Criterion, out.Noise, err = normalizeCriterion(s); err != nil {
		return Spec{}, err
	}
	switch s.Kind {
	case KindCharac:
		if s.Exp != nil || s.TestFlow != nil || s.Diag != nil || s.Yield != nil || s.FaultMap != nil || s.NoiseScan != nil {
			return Spec{}, fmt.Errorf("%w: kind %q with mismatched sub-spec", ErrBadSpec, s.Kind)
		}
		c := CharacSpec{}
		if s.Charac != nil {
			c = *s.Charac
		}
		var err error
		if c.Defects, err = normalizeDefects(c.Defects); err != nil {
			return Spec{}, err
		}
		if c.CaseStudies, err = normalizeCaseStudies(c.CaseStudies); err != nil {
			return Spec{}, err
		}
		out.Charac = &c
	case KindExp:
		if s.Charac != nil || s.TestFlow != nil || s.Diag != nil || s.Yield != nil || s.FaultMap != nil || s.NoiseScan != nil {
			return Spec{}, fmt.Errorf("%w: kind %q with mismatched sub-spec", ErrBadSpec, s.Kind)
		}
		if s.Exp == nil {
			return Spec{}, fmt.Errorf("%w: kind %q requires an exp sub-spec with samples", ErrBadSpec, s.Kind)
		}
		e := *s.Exp
		if e.Samples < 1 {
			return Spec{}, fmt.Errorf("%w: exp.samples = %d, want >= 1", ErrBadSpec, e.Samples)
		}
		if e.Samples > 1<<20 {
			return Spec{}, fmt.Errorf("%w: exp.samples = %d exceeds the 1Mi cap", ErrBadSpec, e.Samples)
		}
		if e.Seed == 0 {
			e.Seed = defaultSeed
		}
		out.Exp = &e
	case KindTestFlow:
		if s.Charac != nil || s.Exp != nil || s.Diag != nil || s.Yield != nil || s.FaultMap != nil || s.NoiseScan != nil {
			return Spec{}, fmt.Errorf("%w: kind %q with mismatched sub-spec", ErrBadSpec, s.Kind)
		}
		f := TestFlowSpec{}
		if s.TestFlow != nil {
			f = *s.TestFlow
		}
		var err error
		if f.Defects, err = normalizeDefects(f.Defects); err != nil {
			return Spec{}, err
		}
		out.TestFlow = &f
	case KindDiag:
		if s.Charac != nil || s.Exp != nil || s.TestFlow != nil || s.Yield != nil || s.FaultMap != nil || s.NoiseScan != nil {
			return Spec{}, fmt.Errorf("%w: kind %q with mismatched sub-spec", ErrBadSpec, s.Kind)
		}
		if s.CSV {
			return Spec{}, fmt.Errorf("%w: kind %q emits a JSON artifact, csv does not apply", ErrBadSpec, s.Kind)
		}
		dg := DiagSpec{}
		if s.Diag != nil {
			dg = *s.Diag
		}
		var err error
		if dg.Defects, err = normalizeDefects(dg.Defects); err != nil {
			return Spec{}, err
		}
		if dg.CaseStudies, err = normalizeCaseStudies(dg.CaseStudies); err != nil {
			return Spec{}, err
		}
		if dg.Decades, err = normalizeDecades(dg.Decades); err != nil {
			return Spec{}, err
		}
		if dg.PointsPerDecade < 0 || dg.PointsPerDecade > maxPointsPerDecade {
			return Spec{}, fmt.Errorf("%w: diag.pointsPerDecade = %d, want 0..%d", ErrBadSpec, dg.PointsPerDecade, maxPointsPerDecade)
		}
		if dg.PointsPerDecade == 1 {
			// One point per decade is the plain grid; share its key.
			dg.PointsPerDecade = 0
		}
		if dg.PointsPerDecade > 1 && len(dg.Decades) < 2 {
			return Spec{}, fmt.Errorf("%w: diag.pointsPerDecade needs >= 2 decades, have %d", ErrBadSpec, len(dg.Decades))
		}
		out.Diag = &dg
	case KindYield:
		if s.Charac != nil || s.Exp != nil || s.TestFlow != nil || s.Diag != nil || s.FaultMap != nil || s.NoiseScan != nil {
			return Spec{}, fmt.Errorf("%w: kind %q with mismatched sub-spec", ErrBadSpec, s.Kind)
		}
		if s.Yield == nil {
			return Spec{}, fmt.Errorf("%w: kind %q requires a yield sub-spec with samples", ErrBadSpec, s.Kind)
		}
		y := *s.Yield
		if y.Samples < 1 {
			return Spec{}, fmt.Errorf("%w: yield.samples = %d, want >= 1", ErrBadSpec, y.Samples)
		}
		if y.Samples > yield.MaxSamples {
			return Spec{}, fmt.Errorf("%w: yield.samples = %d exceeds the %d cap", ErrBadSpec, y.Samples, yield.MaxSamples)
		}
		if y.Seed == 0 {
			y.Seed = defaultSeed
		}
		if y.Vref < 0 {
			return Spec{}, fmt.Errorf("%w: yield.vref = %g, want >= 0", ErrBadSpec, y.Vref)
		}
		if y.Vref == 0 {
			y.Vref = yield.DefaultVref
		}
		if _, err := yield.New(y.Method); err != nil {
			return Spec{}, fmt.Errorf("%w: yield.method %q (have %v)", ErrBadSpec, y.Method, yield.Methods())
		}
		if y.Method == "" {
			y.Method = yield.MethodIS
		}
		if err := normalizeShard(s.Kind, &y.Shards, &y.Shard, s.CSV); err != nil {
			return Spec{}, err
		}
		out.Yield = &y
	case KindFaultMap:
		if s.Charac != nil || s.Exp != nil || s.TestFlow != nil || s.Diag != nil || s.Yield != nil || s.NoiseScan != nil {
			return Spec{}, fmt.Errorf("%w: kind %q with mismatched sub-spec", ErrBadSpec, s.Kind)
		}
		fm := FaultMapSpec{}
		if s.FaultMap != nil {
			fm = *s.FaultMap
		}
		if fm.Maps < 0 {
			return Spec{}, fmt.Errorf("%w: faultmap.maps = %d, want >= 0", ErrBadSpec, fm.Maps)
		}
		if fm.Maps == 0 {
			fm.Maps = faultmap.DefaultMaps
		}
		if fm.Maps > faultmap.MaxMaps {
			return Spec{}, fmt.Errorf("%w: faultmap.maps = %d exceeds the %d cap", ErrBadSpec, fm.Maps, faultmap.MaxMaps)
		}
		if fm.Seed == 0 {
			fm.Seed = defaultSeed
		}
		if fm.Vref < 0 {
			return Spec{}, fmt.Errorf("%w: faultmap.vref = %g, want >= 0", ErrBadSpec, fm.Vref)
		}
		if fm.Vref == 0 {
			fm.Vref = faultmap.DefaultVref
		}
		if fm.Defect < 0 {
			return Spec{}, fmt.Errorf("%w: faultmap.defect = %g, want >= 0", ErrBadSpec, fm.Defect)
		}
		if fm.Defect == 0 {
			fm.Defect = faultmap.DefaultDefect
		}
		if fm.Tests, err = normalizeMarchTests(fm.Tests); err != nil {
			return Spec{}, err
		}
		if fm.RandomOps < 0 || fm.RandomOps > maxRandomOps {
			return Spec{}, fmt.Errorf("%w: faultmap.randomOps = %d not in [0, %d]", ErrBadSpec, fm.RandomOps, maxRandomOps)
		}
		if err := normalizeShard(s.Kind, &fm.Shards, &fm.Shard, s.CSV); err != nil {
			return Spec{}, err
		}
		out.FaultMap = &fm
	case KindNoiseScan:
		if s.Charac != nil || s.Exp != nil || s.TestFlow != nil || s.Diag != nil || s.Yield != nil || s.FaultMap != nil {
			return Spec{}, fmt.Errorf("%w: kind %q with mismatched sub-spec", ErrBadSpec, s.Kind)
		}
		ns := NoiseScanSpec{}
		if s.NoiseScan != nil {
			ns = *s.NoiseScan
		}
		if ns.CaseStudy == 0 {
			ns.CaseStudy = noisescan.DefaultCaseStudy
		}
		if ns.CaseStudy < 1 || ns.CaseStudy > 5 {
			return Spec{}, fmt.Errorf("%w: noisescan.caseStudy = %d, want 1..5", ErrBadSpec, ns.CaseStudy)
		}
		if ns.Points == 0 {
			ns.Points = noisescan.DefaultPoints
		}
		if ns.Points < 2 || ns.Points > noisescan.MaxPoints {
			return Spec{}, fmt.Errorf("%w: noisescan.points = %d, want 2..%d", ErrBadSpec, ns.Points, noisescan.MaxPoints)
		}
		if ns.Below == 0 {
			ns.Below = noisescan.DefaultBelow
		}
		if ns.Above == 0 {
			ns.Above = noisescan.DefaultAbove
		}
		if ns.Below < 0 || ns.Above < 0 {
			return Spec{}, fmt.Errorf("%w: noisescan range −%g/+%g V, want >= 0", ErrBadSpec, ns.Below, ns.Above)
		}
		if err := normalizeShard(s.Kind, &ns.Shards, &ns.Shard, s.CSV); err != nil {
			return Spec{}, err
		}
		out.NoiseScan = &ns
	default:
		return Spec{}, fmt.Errorf("%w: unknown kind %q", ErrBadSpec, s.Kind)
	}
	return out, nil
}

// normalizeShard folds a whole-run shard selector (shards <= 1) to the
// omitted form and validates a shard job's: shard in [0, shards), and
// no CSV, because a shard job emits a JSON partial.
func normalizeShard(kind Kind, shards, shard *int, csv bool) error {
	if *shards <= 1 {
		*shards, *shard = 0, 0
		return nil
	}
	if *shard < 0 || *shard >= *shards {
		return fmt.Errorf("%w: %s.shard = %d not in [0, %d)", ErrBadSpec, kind, *shard, *shards)
	}
	if csv {
		return fmt.Errorf("%w: sharded %s jobs emit a JSON partial, csv does not apply", ErrBadSpec, kind)
	}
	return nil
}

// normalizeDefects validates, sorts and dedupes a defect list; empty
// expands to the 17 Table II defects so the default and its explicit
// spelling share one cache key.
func normalizeDefects(ds []int) ([]int, error) {
	if len(ds) == 0 {
		cands := regulator.DRFCandidates()
		out := make([]int, len(cands))
		for i, d := range cands {
			out[i] = int(d)
		}
		return out, nil
	}
	seen := map[int]bool{}
	out := make([]int, 0, len(ds))
	for _, n := range ds {
		if !regulator.Defect(n).Valid() {
			return nil, fmt.Errorf("%w: invalid defect %d", ErrBadSpec, n)
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out, nil
}

// normalizeDecades validates, sorts and dedupes a resistance grid; empty
// expands to diag's default decade grid so the default and its explicit
// spelling share one cache key.
func normalizeDecades(rs []float64) ([]float64, error) {
	if len(rs) == 0 {
		return diag.DefaultDecades(), nil
	}
	seen := map[float64]bool{}
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if r <= 0 || math.IsInf(r, 0) || math.IsNaN(r) {
			return nil, fmt.Errorf("%w: invalid resistance %g (want finite > 0)", ErrBadSpec, r)
		}
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	sort.Float64s(out)
	return out, nil
}

// normalizeMarchTests validates a March algorithm selection against the
// library; empty expands to the full library in its canonical order, so
// the default and its explicit spelling share one cache key. Order is
// preserved (it is the evaluation and report order); duplicates are
// rejected rather than deduped because a repeat is always a mistake.
func normalizeMarchTests(names []string) ([]string, error) {
	if len(names) == 0 {
		lib := march.Library()
		out := make([]string, len(lib))
		for i, t := range lib {
			out[i] = t.Name
		}
		return out, nil
	}
	seen := map[string]bool{}
	for _, n := range names {
		if _, ok := march.ByName(n); !ok {
			return nil, fmt.Errorf("%w: unknown March test %q", ErrBadSpec, n)
		}
		if seen[n] {
			return nil, fmt.Errorf("%w: duplicate March test %q", ErrBadSpec, n)
		}
		seen[n] = true
	}
	return append([]string(nil), names...), nil
}

// normalizeCaseStudies validates, sorts and dedupes case-study indices;
// empty expands to all five Table II columns.
func normalizeCaseStudies(cs []int) ([]int, error) {
	if len(cs) == 0 {
		return []int{1, 2, 3, 4, 5}, nil
	}
	seen := map[int]bool{}
	out := make([]int, 0, len(cs))
	for _, n := range cs {
		if n < 1 || n > 5 {
			return nil, fmt.Errorf("%w: invalid case study %d (want 1..5)", ErrBadSpec, n)
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out, nil
}

// Canonical returns the canonical serialization of the spec: the JSON of
// its normalized form. It is the store's content address, so its bytes
// must stay stable across releases (golden-tested in testdata/jobs.json).
// When adding a kind or field, add input cases to the golden file and
// regenerate the pinned bytes with
//
//	go test ./internal/jobs -run TestCanonicalGolden -update
//
// instead of hand-editing canonical strings or hashes; review the diff to
// confirm no pre-existing case changed.
func (s Spec) Canonical() ([]byte, error) {
	n, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	return json.Marshal(n)
}

// Key returns the result-store key of the spec.
func (s Spec) Key() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	return store.Key(c), nil
}
