// Command perfbench is the repository benchmark. It drives one of four
// workloads — Table II characterization, rare-event yield, fault-map
// coverage and an in-process sramd node — through a fixed op list derived
// from a workload seed, checks every output, and prints one JSON result
// line. With -trace 1 it instead reports per-layer metrics from a CPU
// profile, spans and public counters. See README.md for the design.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload table2 --seed 7 --seconds 15 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// digestFiles holds the per-op result digests recorded with the default
// seed: one "<hex SHA-256> <op key>" line per distinct op.
//
//go:embed digests
var digestFiles embed.FS

// processStart approximates the process start for setup_s.
var processStart = time.Now()

// defaultSeed is the workload seed whose per-op result digests are
// recorded under digests/.
const defaultSeed = 2013

// setupReps is how many times each run repeats its set-up; setup_s is
// the median.
const setupReps = 3

// workload is one benchmark workload. A run calls setUp setupReps times
// (each from cold program caches), then drive once (twice when traced).
type workload interface {
	// setUp builds the state the op list needs.
	setUp() error
	// ops is the length of the fixed op list.
	ops() int
	// rounds splits the op list into that many consecutive rounds of
	// equal composition that drive runs one after another; each
	// end-to-end timing is the median over the rounds.
	rounds() int
	// drive runs the whole op list (pass numbers successive passes) and
	// reports each op through rec, which is safe for concurrent use.
	drive(pass int, tr *tracer, rec func(op int, lat time.Duration, res []byte, err error))
	// check validates the last pass's results (seed-independent
	// invariants) and returns an error per op (nil when it is correct).
	check(results [][]byte) []error
	// opKey names op i of the last pass by its inputs; recorded digests
	// are keyed by it.
	opKey(i int) string
	// close releases the workload's resources.
	close()
}

func newWorkload(name string, seed int64, seconds int) (workload, error) {
	switch name {
	case "table2":
		return newTable2(seed, seconds), nil
	case "yield":
		return newYield(seed, seconds), nil
	case "faultmap":
		return newFaultMap(seed, seconds), nil
	case "service":
		return newService(seed, seconds), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have table2, yield, faultmap, service)", name)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: table2, yield, faultmap or service")
		seed    = flag.Int64("seed", defaultSeed, "workload seed; the op list is a pure function of it")
		seconds = flag.Int("seconds", 15, "nominal run length; sizes the fixed op list")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		record  = flag.Bool("record-digests", false, "write this run's per-op result digests to perfbench/digests (default seed only)")
	)
	flag.Parse()
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1")
		os.Exit(2)
	}
	out, err := run(*name, *seed, *seconds, *trace == 1, *record)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// passResult is one pass over the op list.
type passResult struct {
	wall    time.Duration
	lat     []time.Duration
	end     []time.Time // when each op completed
	results [][]byte
	errs    []error       // failed or wrong ops
	cpu     time.Duration // process user+sys over the pass
}

func runPass(w workload, pass int, tr *tracer) passResult {
	n := w.ops()
	pr := passResult{lat: make([]time.Duration, n), end: make([]time.Time, n), results: make([][]byte, n)}
	opErrs := make([]error, n)
	var mu sync.Mutex
	cpu0 := processCPU()
	t0 := time.Now()
	w.drive(pass, tr, func(op int, lat time.Duration, res []byte, err error) {
		end := time.Now()
		mu.Lock()
		pr.lat[op], pr.end[op], pr.results[op], opErrs[op] = lat, end, res, err
		mu.Unlock()
	})
	pr.wall = time.Since(t0)
	pr.cpu = processCPU() - cpu0
	pr.errs = w.check(pr.results)
	for i, err := range opErrs {
		if err != nil {
			pr.errs[i] = err
		}
	}
	return pr
}

func run(name string, seed int64, seconds int, traced, record bool) (output, error) {
	w, err := newWorkload(name, seed, seconds)
	if err != nil {
		return output{}, err
	}
	defer w.close()

	setups := make([]float64, setupReps)
	for r := range setups {
		start := time.Now()
		if r == 0 {
			start = processStart
		}
		if err := w.setUp(); err != nil {
			return output{}, fmt.Errorf("%s set-up: %w", name, err)
		}
		runtime.GC() // set-up garbage is not collected inside timed ops
		setups[r] = time.Since(start).Seconds()
	}

	pr := runPass(w, 0, nil)
	if err := checkDigests(name, seed, w, pr, record); err != nil {
		return output{}, err
	}
	failed, firstErr := countFailed(pr.errs)
	report(os.Stderr, name, seed, w.rounds(), pr, failed, firstErr, setups)
	n := w.ops()
	out := output{Correct: failed == 0, Attempted: n, Failed: failed, Metrics: map[string]metric{}}
	if traced {
		tr := newTracer(name)
		tr.untracedWall = pr.wall
		if err := tr.start(); err != nil {
			return output{}, err
		}
		tpr := runPass(w, 1, tr)
		tr.stop()
		if err := checkDigests(name, seed, w, tpr, false); err != nil {
			return output{}, err
		}
		tfailed, tfirst := countFailed(tpr.errs)
		report(os.Stderr, name+" (traced)", seed, w.rounds(), tpr, tfailed, tfirst, nil)
		out.Attempted += n
		out.Failed += tfailed
		out.Correct = out.Failed == 0
		out.Metrics, err = tr.metrics(w, tpr, seed)
		return out, err
	}
	var rate, p50, tailMs []float64
	for _, rd := range splitRounds(pr, w.rounds()) {
		rate = append(rate, rd.rate)
		p50 = append(p50, centralMean(rd.lat))
		t, _, _ := tail(rd.lat)
		tailMs = append(tailMs, t)
	}
	out.Metrics["setup_s"] = metric{median(setups), "s"}
	out.Metrics["ops_per_s"] = metric{median(rate), "1/s"}
	out.Metrics["op_latency_p50_ms"] = metric{median(p50), "ms"}
	out.Metrics["op_latency_tail_ms"] = metric{median(tailMs), "ms"}
	out.Metrics["cpu_s_per_op"] = metric{pr.cpu.Seconds() / float64(n), "s"}
	out.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	return out, nil
}

// checkDigests compares each op's result digest with the one recorded
// for the same op key, marking mismatches in pr.errs; ops whose key has
// no recording are covered by the invariants alone. With record it
// writes the run's digests instead (default seed only).
func checkDigests(name string, seed int64, w workload, pr passResult, record bool) error {
	path := "digests/" + name + ".txt"
	if record {
		if seed != defaultSeed {
			return fmt.Errorf("-record-digests needs the default seed %d", defaultSeed)
		}
		lines := map[string]bool{}
		for i, res := range pr.results {
			if pr.errs[i] != nil {
				return fmt.Errorf("refusing to record digests: op %d: %w", i, pr.errs[i])
			}
			lines[digest(res)+" "+w.opKey(i)] = true
		}
		var sorted []string
		for l := range lines {
			sorted = append(sorted, l)
		}
		sort.Strings(sorted)
		return os.WriteFile(filepath.Join("perfbench", path), []byte(strings.Join(sorted, "\n")+"\n"), 0o644)
	}
	data, err := digestFiles.ReadFile(path)
	if err != nil {
		return fmt.Errorf("recorded digests: %w", err)
	}
	want := map[string]string{}
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if sum, key, ok := strings.Cut(l, " "); ok {
			want[key] = sum
		}
	}
	for i, res := range pr.results {
		sum, ok := want[w.opKey(i)]
		if got := digest(res); ok && got != sum && pr.errs[i] == nil {
			pr.errs[i] = fmt.Errorf("%s: result digest %.12s differs from the recorded %.12s", w.opKey(i), got, sum)
		}
	}
	return nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// countFailed counts failed or wrong ops and returns the first error.
func countFailed(errs []error) (int, error) {
	failed := 0
	var first error
	for i, err := range errs {
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("op %d: %w", i, err)
			}
		}
	}
	return failed, first
}

// report prints the human-readable summary to stderr, one latency line
// per round.
func report(f io.Writer, name string, seed int64, rounds int, pr passResult, failed int, firstErr error, setups []float64) {
	fmt.Fprintf(f, "%s seed=%d ops=%d wall=%.3fs cpu=%.3fs setup=%.4v\n", name, seed, len(pr.lat), pr.wall.Seconds(), pr.cpu.Seconds(), setups)
	for r, rd := range splitRounds(pr, rounds) {
		t, pct, beyond := tail(rd.lat)
		fmt.Fprintf(f, "  round %d: %d ops %.4g/s p50=%.3fms (median %.3fms) tail=p%.2f %.3fms (%d beyond) max=%.3fms\n",
			r, len(rd.lat), rd.rate, centralMean(rd.lat), median(rd.lat), pct, t, beyond, rd.lat[len(rd.lat)-1])
	}
	fmt.Fprintf(f, "  error_rate=%.4f (%d of %d)\n", float64(failed)/float64(len(pr.lat)), failed, len(pr.lat))
	if firstErr != nil {
		fmt.Fprintln(f, "  first failure:", firstErr)
	}
}

// round is one round of a pass: its throughput and sorted latencies.
type round struct {
	rate float64   // ops ÷ wall time from the first op's start to the last op's end
	lat  []float64 // ms, ascending
}

// splitRounds cuts a pass into k consecutive rounds of equal op counts.
func splitRounds(pr passResult, k int) []round {
	n := len(pr.lat)
	out := make([]round, k)
	for r := range out {
		lo, hi := r*n/k, (r+1)*n/k
		first, last := pr.end[lo].Add(-pr.lat[lo]), pr.end[lo]
		for i := lo; i < hi; i++ {
			if s := pr.end[i].Add(-pr.lat[i]); s.Before(first) {
				first = s
			}
			if pr.end[i].After(last) {
				last = pr.end[i]
			}
		}
		out[r] = round{rate: float64(hi-lo) / last.Sub(first).Seconds(), lat: sortedMs(pr.lat[lo:hi])}
	}
	return out
}

func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// centralMean estimates the median as the mean of the order statistics
// from the 40th to the 60th percentile. In the table2 op mix neighbouring
// cells near the median differ by up to 25%, so a plain median jumps
// between them whenever machine noise reorders a few cells; the central
// fifth moves smoothly. It equals the plain median for n <= 5.
func centralMean(sorted []float64) float64 {
	n := len(sorted)
	lo, hi := int(math.Floor(0.4*float64(n))), int(math.Ceil(0.6*float64(n)))
	sum := 0.0
	for _, x := range sorted[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// median of an ascending or unsorted sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic with at least ten samples
// above it, its percentile and that count. A sorted sample of n <= 10
// has no such statistic; its maximum is returned with zero beyond, and
// README.md states where that applies.
func tail(sorted []float64) (value, percentile float64, beyond int) {
	n := len(sorted)
	k := n - 11 // zero-based index with n-1-k = 10 samples above
	if k < 0 {
		return sorted[n-1], 100, 0
	}
	return sorted[k], 100 * float64(k+1) / float64(n), n - 1 - k
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// labeled runs f under the pprof labels {workload, op}; the labels only
// matter while a CPU profile is recording.
func labeled(workload string, op int, f func()) {
	pprof.Do(context.Background(), pprof.Labels("workload", workload, "op", strconv.Itoa(op)), func(context.Context) { f() })
}

// GOMAXPROCS is pinned to the machine's CPU count, so every run uses
// the same scheduler width whatever the environment says.
func init() { runtime.GOMAXPROCS(runtime.NumCPU()) }
