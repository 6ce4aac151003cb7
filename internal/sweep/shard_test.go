package sweep

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// TestMapOwnedPartition: for every unit count and shard split, the
// shards' owned units partition [0, n), each shard's in ascending
// order and each unit on the shard it is congruent to.
func TestMapOwnedPartition(t *testing.T) {
	for n := 0; n < 10; n++ {
		for k := 1; k <= 4; k++ {
			covered := make([]int, n)
			for s := 0; s < k; s++ {
				got, err := MapOwned(context.Background(), n, k, s, func(c int) (int, error) { return c, nil }, Workers(3))
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != owned(n, k, s) {
					t.Errorf("n=%d k=%d s=%d: %d units, owned says %d", n, k, s, len(got), owned(n, k, s))
				}
				for i, c := range got {
					if c%k != s || (i > 0 && c <= got[i-1]) {
						t.Fatalf("n=%d k=%d s=%d: units %v not owned or not ascending", n, k, s, got)
					}
					covered[c]++
				}
			}
			for c, times := range covered {
				if times != 1 {
					t.Errorf("n=%d k=%d: unit %d covered %d times", n, k, c, times)
				}
			}
		}
	}
	all, _ := MapOwned(context.Background(), 3, 0, 5, func(c int) (int, error) { return c, nil })
	if !reflect.DeepEqual(all, []int{0, 1, 2}) {
		t.Errorf("k <= 1 must own every unit, got %v", all)
	}
}

// TestShardPlacement pins the one rule for entry points: a whole run
// takes Shards <= 1, a shard run Shards >= 2 with the shard in range.
func TestShardPlacement(t *testing.T) {
	for _, k := range []int{-1, 0, 1} {
		if err := CheckWhole(k); err != nil {
			t.Errorf("CheckWhole(%d): %v", k, err)
		}
		if err := CheckShard(k, 0); err == nil {
			t.Errorf("CheckShard(%d, 0) accepted a whole run", k)
		}
	}
	if err := CheckWhole(2); err == nil {
		t.Error("CheckWhole(2) accepted a shard run")
	}
	for _, s := range []int{0, 2} {
		if err := CheckShard(3, s); err != nil {
			t.Errorf("CheckShard(3, %d): %v", s, err)
		}
	}
	for _, s := range []int{-1, 3} {
		if err := CheckShard(3, s); err == nil {
			t.Errorf("CheckShard(3, %d) accepted an out-of-range shard", s)
		}
	}
}

// TestMerge covers the shared merge: a valid set in any order returns
// the statistics in index order, and every violation of the contract is
// refused with its own reason.
func TestMerge(t *testing.T) {
	type part = Part[string, int]
	mk := func(shard int, stats ...int) part {
		return part{Version: 1, Shards: 2, Shard: shard, Header: "job", Units: 5, Stats: stats}
	}
	with := func(p part, edit func(*part)) part { edit(&p); return p }
	s0, s1 := mk(0, 0, 2, 4), mk(1, 1, 3)
	empty := func(shard int) part { return with(mk(shard), func(p *part) { p.Units = 0 }) }

	cases := []struct {
		name  string
		parts []part
		want  []int  // on success
		err   string // expected error fragment; "" = success
	}{
		{"complete", []part{s0, s1}, []int{0, 1, 2, 3, 4}, ""},
		{"any order", []part{s1, s0}, []int{0, 1, 2, 3, 4}, ""},
		{"certified empty", []part{empty(1), empty(0)}, []int{}, ""},
		{"empty set", nil, nil, "no partials"},
		{"version", []part{s0, with(s1, func(p *part) { p.Version = 2 })}, nil, "version 2"},
		{"count", []part{s0}, nil, "1 partials for 2 shards"},
		{"shard count mismatch", []part{s0, with(s1, func(p *part) { p.Shards = 3 })}, nil, "disagrees"},
		{"header mismatch", []part{s0, with(s1, func(p *part) { p.Header = "other" })}, nil, "disagrees"},
		{"units mismatch", []part{s0, with(s1, func(p *part) { p.Units = 6 })}, nil, "disagrees"},
		{"shard out of range", []part{s0, with(s1, func(p *part) { p.Shard = 2 })}, nil, "bad or duplicate shard index 2"},
		{"negative shard", []part{s0, with(s1, func(p *part) { p.Shard = -1 })}, nil, "bad or duplicate shard index -1"},
		{"duplicate shard", []part{s0, s0}, nil, "bad or duplicate shard index 0"},
		{"foreign index", []part{mk(0, 0, 4), mk(1, 1, 2, 3)}, nil, "foreign unit 2"},
		{"index out of range", []part{mk(0, 0, 2, 4), mk(1, 1, 5)}, nil, "unit 5 outside"},
		{"negative index", []part{mk(0, 0, 2, 4), mk(1, 1, -1)}, nil, "unit -1 outside"},
		{"missing index", []part{s0, mk(1, 1)}, nil, "merged 4 units, want 5"},
		{"duplicate index", []part{s0, mk(1, 1, 1)}, nil, "unit 1 reported twice"},
		{"certified empty with stats", []part{empty(0), with(empty(1), func(p *part) { p.Stats = []int{1} })}, nil, "merged 1 units, want 0"},
	}
	for _, tc := range cases {
		got, err := Merge(tc.parts, 1, func(p part) part { return p }, func(c int) int { return c })
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.err == "" && !reflect.DeepEqual(got, tc.want):
			t.Errorf("%s: merged %v, want %v", tc.name, got, tc.want)
		case tc.err != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.err != "" && !strings.Contains(err.Error(), tc.err):
			t.Errorf("%s: error %q, want it to mention %q", tc.name, err, tc.err)
		}
	}
}
