// Package sweeptest holds the test harness of the sharded-estimate
// contract (sweep.MapOwned and sweep.Merge) that every sharded workload —
// internal/yield, internal/faultmap, internal/noisescan — checks itself
// against: a wire-format golden for its Partial JSON and a randomized
// property that any shard split, JSON round-tripped and merged in any
// order, reproduces the whole run byte-for-byte.
package sweeptest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// PartialGolden pins a workload's Partial wire format: every shard of a
// k-way split must encode to the bytes recorded under dir
// (partial-<s>-of-<k>.json), and the recorded partials — standing in
// for shard results already in a persistent store — must still merge
// to the JSON bytes of whole. With update set it first rewrites the
// files, so a deliberate wire-format change is recorded by re-running
// the test with -update.
func PartialGolden[P, R any](t testing.TB, dir string, k int, whole R, partial func(k, s int) (P, error), merge func([]P) (R, error), update bool) {
	t.Helper()
	parts := make([]P, k)
	for s := range parts {
		part, err := partial(k, s)
		if err != nil {
			t.Fatalf("shard %d of %d: %v", s, k, err)
		}
		got := mustJSON(t, part)
		path := filepath.Join(dir, fmt.Sprintf("partial-%d-of-%d.json", s, k))
		if update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		recorded, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to record)", err)
		}
		if !bytes.Equal(got, recorded) {
			t.Errorf("%s: bytes differ from the recorded golden\n got %s\nwant %s", path, got, recorded)
		}
		if err := json.Unmarshal(recorded, &parts[s]); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	got, err := merge(parts)
	if err != nil {
		t.Fatalf("merge of the recorded partials: %v", err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, whole); !bytes.Equal(g, w) {
		t.Errorf("recorded partials merge to different bytes than the whole run:\n got %s\nwant %s", g, w)
	}
}

// MergeProperty checks the shard-split invariant of one workload: for
// every shard count 2..5, the shard partials — each round-tripped
// through its JSON wire format and handed to merge in an rng-shuffled
// order — reproduce the JSON bytes of whole, the unsharded result.
// partial runs shard s of k.
func MergeProperty[P, R any](t testing.TB, rng *rand.Rand, whole R, partial func(k, s int) (P, error), merge func([]P) (R, error)) {
	t.Helper()
	want := mustJSON(t, whole)
	for k := 2; k <= 5; k++ {
		parts := make([]P, k)
		for s := range parts {
			part, err := partial(k, s)
			if err != nil {
				t.Fatalf("shard %d of %d: %v", s, k, err)
			}
			if err := json.Unmarshal(mustJSON(t, part), &parts[s]); err != nil {
				t.Fatal(err)
			}
		}
		rng.Shuffle(k, func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		got, err := merge(parts)
		if err != nil {
			t.Fatalf("merge of %d shards: %v", k, err)
		}
		if g := mustJSON(t, got); !bytes.Equal(g, want) {
			t.Errorf("merge of %d shuffled shards differs from the whole run:\n got %s\nwant %s", k, g, want)
		}
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
