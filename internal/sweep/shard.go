package sweep

import (
	"context"
	"errors"
	"fmt"
)

// The sharded-estimate contract shared by every workload that fans one
// estimate out over a cluster (internal/yield, internal/faultmap,
// internal/noisescan). Work is split into indexed units (sampling
// chunks, map chunks, rail points) whose statistics depend only on the
// unit index. Shard s of k owns the units c ≡ s (mod k) and emits their
// statistics in a Partial; Merge validates a complete set of partials
// and hands the statistics back in index order, so the workload's own
// finalize sees exactly the sequence an unsharded run produces.

// CheckWhole validates the placement of a whole-run entry point: k
// shards with k <= 1 (the unsharded default).
func CheckWhole(k int) error {
	if k > 1 {
		return fmt.Errorf("a whole run needs Shards <= 1, got %d (run each shard's partial and merge them)", k)
	}
	return nil
}

// CheckShard validates the placement of a shard entry point: shard s
// of k >= 2 shards, 0 <= s < k.
func CheckShard(k, s int) error {
	if k <= 1 {
		return fmt.Errorf("a shard run needs Shards >= 2, got %d (one shard is the whole run)", k)
	}
	if s < 0 || s >= k {
		return fmt.Errorf("shard %d not in [0, %d)", s, k)
	}
	return nil
}

// owned reports how many of the units [0, n) shard s of k owns.
func owned(n, k, s int) int {
	if s >= n {
		return 0
	}
	return (n - s + k - 1) / k
}

// MapOwned runs fn over the units of [0, n) that shard s of k owns, on
// the MapCtx engine, and returns their results in index order. k <= 1
// owns every unit.
func MapOwned[T any](ctx context.Context, n, k, s int, fn func(c int) (T, error), opts ...Option) ([]T, error) {
	if k <= 1 {
		k, s = 1, 0
	}
	return MapCtx(ctx, owned(n, k, s), func(i int) (T, error) { return fn(s + i*k) }, opts...)
}

// Part is the merge view of one shard's partial.
type Part[H comparable, S any] struct {
	Version int
	// Shards/Shard place the partial: shard Shard of Shards.
	Shards int
	Shard  int
	// Header is everything else that must agree across the set: the job
	// parameters and the shard-invariant calibration.
	Header H
	// Units is the number of units the complete set covers; a partial
	// that needs no units (a certified empty estimate) carries 0.
	Units int
	// Stats are the statistics of the units the shard owns.
	Stats []S
}

// Merge validates a complete shard set and returns its statistics in
// index order. view exposes each partial's merge view and index the
// unit index of one statistic. The set must hold exactly one partial
// per shard, all at the given version with equal Shards, Header and
// Units, each reporting only units it owns, together covering [0,
// Units) with no gap or duplicate.
func Merge[P any, H comparable, S any](parts []P, version int, view func(P) Part[H, S], index func(S) int) ([]S, error) {
	if len(parts) == 0 {
		return nil, errors.New("no partials to merge")
	}
	views := make([]Part[H, S], len(parts))
	for i, p := range parts {
		views[i] = view(p)
	}
	ref := views[0]
	if len(parts) != ref.Shards {
		return nil, fmt.Errorf("%d partials for %d shards", len(parts), ref.Shards)
	}
	seen := make([]bool, ref.Shards)
	total := 0
	for _, v := range views {
		if v.Version != version {
			return nil, fmt.Errorf("partial version %d, want %d", v.Version, version)
		}
		if v.Shards != ref.Shards || v.Header != ref.Header || v.Units != ref.Units {
			return nil, fmt.Errorf("shard %d disagrees on the job header or calibration", v.Shard)
		}
		if v.Shard < 0 || v.Shard >= ref.Shards || seen[v.Shard] {
			return nil, fmt.Errorf("bad or duplicate shard index %d", v.Shard)
		}
		seen[v.Shard] = true
		total += len(v.Stats)
	}
	// Checking the count first bounds the allocation below by the data
	// actually received, whatever Units a decoded header claims; with the
	// count right, no duplicate also means no gap.
	if total != ref.Units {
		return nil, fmt.Errorf("merged %d units, want %d", total, ref.Units)
	}
	out := make([]S, total)
	have := make([]bool, total)
	for _, v := range views {
		for _, st := range v.Stats {
			c := index(st)
			switch {
			case c < 0 || c >= total:
				return nil, fmt.Errorf("shard %d reports unit %d outside [0, %d)", v.Shard, c, total)
			case c%ref.Shards != v.Shard:
				return nil, fmt.Errorf("shard %d reports foreign unit %d", v.Shard, c)
			case have[c]:
				return nil, fmt.Errorf("unit %d reported twice", c)
			}
			out[c], have[c] = st, true
		}
	}
	return out, nil
}
