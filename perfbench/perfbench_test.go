package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// passCounts are the work counts one pass leaves in the program's public
// counters: solver and fault-map statistics and, for service, the result
// store's hits, misses and evictions.
type passCounts struct {
	counters
	store [3]int64
}

// shortPass runs one set-up and one pass of w and returns the per-op
// result digests, the counts of the pass, and the errors the gates found.
func shortPass(t *testing.T, w workload) ([]string, passCounts, []error) {
	t.Helper()
	if err := w.setUp(); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	var st0, st1 [3]int64
	svc, isSvc := w.(*service)
	if isSvc {
		st0[0], st0[1], st0[2] = svc.st.Stats()
	}
	c0 := readCounters()
	pr := runPass(w, 0, nil)
	pc := passCounts{counters: readCounters().sub(c0)}
	if isSvc {
		st1[0], st1[1], st1[2] = svc.st.Stats()
		for i := range pc.store {
			pc.store[i] = st1[i] - st0[i]
		}
	}
	sums := make([]string, len(pr.results))
	for i, r := range pr.results {
		sums[i] = digest(r)
	}
	return sums, pc, pr.errs
}

// shortWorkloads builds each workload with a short op list: the cheap
// Table II cells of one defect, one yield estimate, one fault-map corpus
// and a 40-request service pass.
func shortWorkloads(seed int64) map[string]func() workload {
	return map[string]func() workload{
		"table2": func() workload {
			w := newTable2(seed, 1)
			var cells []t2cell
			for _, c := range w.cells {
				if c.d == w.cells[0].d && c.cs != 0 {
					cells = append(cells, c)
				}
			}
			w.cells, w.per = cells, len(cells)
			return w
		},
		"yield": func() workload {
			w := newYield(seed, 1)
			w.seeds = w.seeds[:1]
			return w
		},
		"faultmap": func() workload { return newFaultMap(seed, 1) },
		"service": func() workload {
			w := newService(seed, 1)
			w.n = 40
			return w
		},
	}
}

// TestDeterminism runs each workload's short op list twice and requires
// identical result digests and identical public work counters, so the
// counters can be cited as exact counts.
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice (about a minute)")
	}
	for name, mk := range shortWorkloads(7) {
		t.Run(name, func(t *testing.T) {
			sums1, c1, errs := shortPass(t, mk())
			for i, err := range errs {
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			sums2, c2, _ := shortPass(t, mk())
			if !reflect.DeepEqual(sums1, sums2) {
				t.Errorf("result digests differ between identical passes:\n%v\n%v", sums1, sums2)
			}
			if c1 != c2 {
				t.Errorf("counters differ between identical passes:\n%+v\n%+v", c1, c2)
			}
		})
	}
}

// TestTail checks the tail rule: ten samples lie above the reported
// order statistic.
func TestTail(t *testing.T) {
	xs := make([]float64, 81)
	for i := range xs {
		xs[i] = float64(i)
	}
	v, pct, beyond := tail(xs)
	if v != 70 || beyond != 10 || pct < 87 || pct > 88 {
		t.Errorf("tail(0..80) = %g p%.2f with %d beyond, want 70 p87.65 with 10", v, pct, beyond)
	}
	if v, _, beyond := tail(xs[:4]); v != 3 || beyond != 0 {
		t.Errorf("tail of 4 samples = %g with %d beyond, want the maximum with 0", v, beyond)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's per-layer list in step with
// the metrics a traced run emits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the tracer emits %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if b.PerLayer[i].Name != m.name || b.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %s (%s), tracer emits %s (%s)", i, b.PerLayer[i].Name, b.PerLayer[i].Unit, m.name, m.unit)
		}
	}
}

// TestProfileAttribution profiles a short table2 pass and checks the
// decoder finds program frames and charges self time to layers.
func TestProfileAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles a table2 pass")
	}
	w := shortWorkloads(7)["table2"]()
	if err := w.setUp(); err != nil {
		t.Fatal(err)
	}
	tr := newTracer("table2")
	tr.untracedWall = time.Second
	if err := tr.start(); err != nil {
		t.Fatal(err)
	}
	for time.Since(tr.t0) < 500*time.Millisecond {
		runPass(w, 1, tr)
	}
	tr.stop()
	p, err := parseProfile(tr.prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(p)
	if a.total <= 0 || a.self["cell"]+a.self["device"]+a.self["spice"]+a.self["regulator"] <= 0 {
		t.Errorf("no program CPU attributed: total %.3fs, self %v", a.total, a.self)
	}
	labeled := 0
	for _, s := range p.samples {
		if s.labels["workload"] == "table2" {
			labeled++
		}
	}
	if labeled == 0 {
		t.Error("no sample carries the workload label")
	}
}
