// Package engine defines the backend-agnostic simulation seam of the
// toolkit (DESIGN.md §5.9): every sweep layer — defect characterization,
// the test-flow optimizer, the diagnosis dictionary — evaluates its DRF
// criteria through an Engine instead of calling the circuit solver
// directly.
//
// Three backends implement the seam:
//
//   - engine/spicebe wraps the internal/spice Newton solver with the
//     warm-start machinery the sweeps always used; it is the exact
//     reference backend and the process default.
//   - engine/surrogate answers rail queries from calibrated
//     interpolation tables (SPICE-sampled once per condition/defect)
//     with an explicit uncertainty band; fast and approximate.
//   - engine/tiered screens every decision with the surrogate band and
//     escalates to full SPICE whenever the band straddles a pass/fail
//     boundary, so its reported numbers are always SPICE-confirmed while
//     most solves are skipped.
//
// The seam is decision-level, not solve-level: an Eval answers "does this
// defect at this resistance lose the datum?" rather than "what is node
// 17's voltage?", because that is the granularity at which a calibrated
// band can safely short-circuit the Newton solve.
package engine

import (
	"fmt"
	"sort"
	"sync"

	"sramtest/internal/process"
	"sramtest/internal/regulator"
	"sramtest/internal/spice"
	"sramtest/internal/sram"
)

// Rail is a bounded estimate of the settled deep-sleep V_DD_CC (V).
// Exact backends return Lo == Hi; the surrogate returns its interpolated
// value widened by the local uncertainty margin.
type Rail struct {
	Lo, Hi float64
}

// Mid returns the band's center — the surrogate's point estimate.
func (r Rail) Mid() float64 { return 0.5 * (r.Lo + r.Hi) }

// Width returns the band's total width (0 for exact backends).
func (r Rail) Width() float64 { return r.Hi - r.Lo }

// Engine is one simulation backend. Engines are safe for concurrent use;
// per-condition state lives in the Evals they hand out.
type Engine interface {
	// Name identifies the backend, including its calibration version
	// ("spice", "surrogate.v1", "tiered.v1"). It is part of every memo
	// and store key that caches engine results, so two backends can
	// never collide in a cache.
	Name() string
	// Eval prepares a per-condition evaluation context (netlist, cell
	// thresholds, calibration tables) for the given PVT condition and
	// reference level. sopt carries the solver settings, notably the
	// ColdStart ablation. crit selects the retention-decision criterion;
	// nil resolves to Static (PickCriterion). The Eval is NOT safe for
	// concurrent use; each worker holds its own.
	Eval(cond process.Condition, level regulator.VrefLevel, sopt spice.Options, crit Criterion) (Eval, error)
	// DRV1 is the static data-retention-voltage oracle for a stored '1'
	// (the bisection over the cell's retention criterion). It is pure
	// cell-level math, identical across backends, and memoized
	// process-wide.
	DRV1(v process.Variation, cond process.Condition) float64
	// DRV0 is the stored-'0' twin of DRV1.
	DRV0(v process.Variation, cond process.Condition) float64
}

// Eval is a per-condition evaluation context. Its query methods follow
// the paper's DRF methodology; implementations may chain warm starts
// between calls, which never affects the answers (the repo's warm-start
// equivalence contract).
type Eval interface {
	// FaultFreeRail returns the deep-sleep V_DD_CC of the healthy
	// regulator. Reported by the flow optimizer, so the tiered backend
	// always SPICE-confirms it.
	FaultFreeRail() (float64, error)
	// Lost evaluates the full DRF criterion: does defect d at the given
	// resistance make case study cs lose its stored '1' within the DS
	// dwell? res <= 0 probes the fault-free netlist under d's analysis
	// mode (the characterization sanity check).
	Lost(d regulator.Defect, res float64, cs process.CaseStudy, dwell float64) (bool, error)
	// Retention builds the retention model of a device carrying defect d
	// at the given resistance — the seam the behavioral SRAM and the
	// March engine consume. warm optionally seeds the underlying solve;
	// the returned solution continues the caller's warm chain (it is the
	// input warm, unchanged, when the backend answered without solving).
	Retention(d regulator.Defect, res float64, warm *spice.Solution) (sram.RetentionModel, *spice.Solution, error)
	// Release returns pooled resources (regulator netlists) for reuse.
	// The Eval and any retention model it produced must not be used
	// afterwards.
	Release()
}

// registry maps flag-level engine names to constructors. Backends
// register themselves from init; the indirection avoids import cycles
// (backends import engine, never the reverse).
var registry = struct {
	sync.Mutex
	ctors map[string]func() Engine
}{ctors: map[string]func() Engine{}}

// Register installs a backend constructor under a flag-level name
// ("spice", "surrogate", "tiered"). Later registrations of the same name
// win, so tests can stub backends.
func Register(name string, ctor func() Engine) {
	registry.Lock()
	defer registry.Unlock()
	registry.ctors[name] = ctor
}

// Names lists the registered backends, sorted (flag help text).
func Names() []string {
	registry.Lock()
	defer registry.Unlock()
	out := make([]string, 0, len(registry.ctors))
	for n := range registry.ctors {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Resolve constructs the backend registered under name. The empty name
// resolves to "spice". Versioned names are accepted too ("surrogate.v1"
// matches the "surrogate" constructor when its Name() agrees), so
// canonical job specs round-trip.
func Resolve(name string) (Engine, error) {
	if name == "" {
		name = "spice"
	}
	registry.Lock()
	ctor, ok := registry.ctors[name]
	registry.Unlock()
	if ok {
		return ctor(), nil
	}
	// Versioned spelling: match on the constructed engine's Name().
	registry.Lock()
	ctors := make([]func() Engine, 0, len(registry.ctors))
	for _, c := range registry.ctors {
		ctors = append(ctors, c)
	}
	registry.Unlock()
	for _, c := range ctors {
		if e := c(); e.Name() == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("engine: unknown engine %q (have %v)", name, Names())
}

// defaultEngine is the process-wide default, settable by the shared
// -engine flag (internal/cli). Guarded by defaultMu; read on every sweep
// entry point whose options leave Engine nil.
var (
	defaultMu     sync.Mutex
	defaultEngine Engine
)

// SetDefault installs the process-wide default engine. nil resets to the
// built-in "spice" backend.
func SetDefault(e Engine) {
	defaultMu.Lock()
	defaultEngine = e
	defaultMu.Unlock()
}

// Default returns the process-wide default engine: the one installed by
// SetDefault, else the registered "spice" backend. It panics when no
// backend is linked in — every consumer package imports engine/spicebe.
func Default() Engine {
	defaultMu.Lock()
	e := defaultEngine
	defaultMu.Unlock()
	if e != nil {
		return e
	}
	e, err := Resolve("spice")
	if err != nil {
		panic("engine: no spice backend registered — import sramtest/internal/engine/spicebe")
	}
	return e
}

// Pick returns e when non-nil, else the process default. Sweep options
// use it to resolve their Engine field.
func Pick(e Engine) Engine {
	if e != nil {
		return e
	}
	return Default()
}
