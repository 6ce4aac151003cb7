package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"sramtest/internal/faultmap"
	"sramtest/internal/spice"
)

// span is one timed call the benchmark makes into a layer. Spans of one
// op share Op; Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"startNs"` // since the traced pass began
	End    int64  `json:"endNs"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// counters are the program's public process-wide counters.
type counters struct {
	Spice    spice.SolverStats
	FaultMap faultmap.FaultMapStats
}

func readCounters() counters { return counters{spice.Stats(), faultmap.Stats()} }

func (c counters) sub(prev counters) counters {
	return counters{
		Spice: c.Spice.Sub(prev.Spice),
		FaultMap: faultmap.FaultMapStats{
			Runs:      c.FaultMap.Runs - prev.FaultMap.Runs,
			Partials:  c.FaultMap.Partials - prev.FaultMap.Partials,
			Maps:      c.FaultMap.Maps - prev.FaultMap.Maps,
			FaultBits: c.FaultMap.FaultBits - prev.FaultMap.FaultBits,
			Detected:  c.FaultMap.Detected - prev.FaultMap.Detected,
			Dropped:   c.FaultMap.Dropped - prev.FaultMap.Dropped,
		},
	}
}

// tracer records one traced pass: a CPU profile, spans kept in memory,
// and counter snapshots around each op. All methods are no-ops on a nil
// tracer, so workloads call them unconditionally.
type tracer struct {
	workload string
	t0       time.Time
	prof     bytes.Buffer

	mu    sync.Mutex
	spans []span
	opCtr map[int]counters // per-op counter deltas (sequential workloads)

	before, after counters
	mem0, mem1    runtime.MemStats
	untracedWall  time.Duration
	extra         map[string]float64 // workload-supplied layer values
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, opCtr: map[int]counters{}, extra: map[string]float64{}}
}

func (t *tracer) start() error {
	runtime.GC()
	runtime.ReadMemStats(&t.mem0)
	t.before = readCounters()
	t.t0 = time.Now()
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

func (t *tracer) stop() {
	pprof.StopCPUProfile()
	t.after = readCounters()
	runtime.ReadMemStats(&t.mem1)
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// opCounters brackets one sequential op with counter snapshots.
func (t *tracer) opCounters(op int, f func()) {
	if t == nil {
		f()
		return
	}
	c0 := readCounters()
	f()
	d := readCounters().sub(c0)
	t.mu.Lock()
	t.opCtr[op] = d
	t.mu.Unlock()
}

// set records a workload-supplied layer value.
func (t *tracer) set(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.extra[name] = v
	t.mu.Unlock()
}

// spansNamed returns the durations (ms) of the spans called name.
func (t *tracer) spansNamed(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s.ms())
		}
	}
	return out
}

// layerMetric is one per-layer metric: its name in BENCHMARK.json and
// its unit.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric, in BENCHMARK.json order.
// Each traced run reports all of them; a layer a workload never enters
// reads 0.
var layerMetrics = []layerMetric{
	{"cell.dynamics_cpu_s_per_op", "s"},
	{"cell.dc_cpu_s_per_op", "s"},
	{"device.self_cpu_s_per_op", "s"},
	{"num.self_cpu_s_per_op", "s"},
	{"spice.self_cpu_s_per_op", "s"},
	{"regulator.self_cpu_s_per_op", "s"},
	{"spice.solve_cpu_s_per_op", "s"},
	{"spice.solves_per_op", "count"},
	{"spice.newton_iters_per_solve", "count"},
	{"spice.tran_steps_per_op", "count"},
	{"spice.tran_rejects_per_op", "count"},
	{"spice.fallbacks_per_op", "count"},
	{"engine.self_cpu_s_per_op", "s"},
	{"charac.self_cpu_s_per_op", "s"},
	{"yield.exact_solves_per_op", "count"},
	{"yield.self_cpu_s_per_op", "s"},
	{"march.run_cpu_s_per_op", "s"},
	{"march.self_cpu_s_per_op", "s"},
	{"sram.self_cpu_s_per_op", "s"},
	{"faultmap.self_cpu_s_per_op", "s"},
	{"faultmap.calibrate_cpu_s_per_op", "s"},
	{"faultmap.maps_per_op", "count"},
	{"faultmap.fault_bits_per_map", "count"},
	{"faultmap.dropped_per_op", "count"},
	{"server.hit_ms_p50", "ms"},
	{"server.fresh_ms_p50", "ms"},
	{"client.transport_ms_p50", "ms"},
	{"jobs.runner_ms_p50", "ms"},
	{"jobs.queue_wait_ms_p50", "ms"},
	{"jobs.retries", "count"},
	{"jobs.retained_records", "count"},
	{"jobs.cache_hit_ratio", "1"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.evictions", "count"},
	{"jobs.self_cpu_s_per_op", "s"},
	{"store.self_cpu_s_per_op", "s"},
	{"server.self_cpu_s_per_op", "s"},
	{"runtime.gc_cpu_s_per_op", "s"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"profile.cpu_s_per_op", "s"},
	{"trace.ops_per_s", "1/s"},
	{"trace.untraced_ops_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
}

// traceDir receives the trace artifacts, relative to the checkout root.
const traceDir = ".bench_build/trace"

// metrics folds the traced pass into the per-layer metrics and writes
// the trace artifacts (profile, spans, per-op counters) to traceDir.
func (t *tracer) metrics(w workload, pr passResult, seed int64) (map[string]metric, error) {
	p, err := parseProfile(t.prof.Bytes())
	if err != nil {
		return nil, err
	}
	a := attribute(p)
	n := float64(w.ops())
	d := t.after.sub(t.before)

	v := map[string]float64{}
	for _, layer := range []string{"device", "num", "spice", "regulator", "engine", "charac", "yield", "march", "sram", "faultmap", "jobs", "store", "server"} {
		v[layer+".self_cpu_s_per_op"] = a.self[layer] / n
	}
	v["cell.dynamics_cpu_s_per_op"] = a.cum["cell.dynamics"] / n
	v["cell.dc_cpu_s_per_op"] = a.cum["cell.dc"] / n
	v["spice.solve_cpu_s_per_op"] = a.cum["spice.solve"] / n
	v["march.run_cpu_s_per_op"] = a.cum["march.run"] / n
	v["faultmap.calibrate_cpu_s_per_op"] = a.cum["faultmap.calibrate"] / n
	v["runtime.gc_cpu_s_per_op"] = a.gc / n
	v["profile.cpu_s_per_op"] = a.total / n

	v["spice.solves_per_op"] = float64(d.Spice.Solves) / n
	v["spice.newton_iters_per_solve"] = d.Spice.ItersPerSolve()
	v["spice.tran_steps_per_op"] = float64(d.Spice.TranSteps) / n
	v["spice.tran_rejects_per_op"] = float64(d.Spice.TranRejects) / n
	v["spice.fallbacks_per_op"] = float64(d.Spice.GminFallbacks+d.Spice.SourceFallbacks+d.Spice.ColdRestarts) / n
	v["faultmap.maps_per_op"] = float64(d.FaultMap.Maps) / n
	if d.FaultMap.Maps > 0 {
		v["faultmap.fault_bits_per_map"] = float64(d.FaultMap.FaultBits) / float64(d.FaultMap.Maps)
	}
	v["faultmap.dropped_per_op"] = float64(d.FaultMap.Dropped) / n

	v["runtime.alloc_mb_per_op"] = float64(t.mem1.TotalAlloc-t.mem0.TotalAlloc) / (1 << 20) / n
	v["runtime.gc_cycles_per_op"] = float64(t.mem1.NumGC-t.mem0.NumGC) / n

	traced := n / pr.wall.Seconds()
	untraced := n / t.untracedWall.Seconds()
	v["trace.ops_per_s"] = traced
	v["trace.untraced_ops_per_s"] = untraced
	v["trace.overhead_pct"] = 100 * (untraced/traced - 1)

	t.mu.Lock()
	for k, x := range t.extra {
		v[k] = x
	}
	t.mu.Unlock()

	out := map[string]metric{}
	for _, m := range layerMetrics {
		out[m.name] = metric{v[m.name], m.unit}
	}
	if err := t.write(seed, out); err != nil {
		return nil, err
	}
	return out, nil
}

// write saves the profile and a JSON trace (spans, per-op counter
// deltas, per-layer metrics) under traceDir.
func (t *tracer) write(seed int64, m map[string]metric) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", t.workload, seed))
	if err := os.WriteFile(base+".cpu.pprof", t.prof.Bytes(), 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	t.mu.Lock()
	doc := struct {
		Workload   string            `json:"workload"`
		Seed       int64             `json:"seed"`
		Spans      []span            `json:"spans"`
		OpCounters map[int]counters  `json:"opCounters,omitempty"`
		Metrics    map[string]metric `json:"metrics"`
	}{t.workload, seed, t.spans, t.opCtr, m}
	data, err := json.MarshalIndent(doc, "", " ")
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return os.WriteFile(base+".trace.json", data, 0o644)
}
