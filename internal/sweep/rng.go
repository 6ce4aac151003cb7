package sweep

// ChunkSeed derives the RNG seed of one sampling chunk from a master
// seed. It is the sharded-RNG convention shared by every seeded
// workload: exp.MonteCarloCtx, internal/yield (sample chunks and the
// screen calibration), internal/faultmap (one stream per map plus the
// DRV calibration block) and the noise ensembles of
// engine.NoiseCriterion and internal/noisescan (spice.NoiseSource
// mirrors the derivation below sweep). Work is drawn in fixed
// units, unit c seeds its own rand.Source with ChunkSeed(seed, c), and
// workers (or shards, see MapOwned and Merge) claim whole units — so
// the sampled multiset is a pure function of (n, seed) at any worker
// or shard count, and no stream is ever consumed by two units.
//
// The derivation is a splitmix64 finalizer over seed + (c+1)·γ, where γ
// is the 64-bit golden-ratio increment. Splitmix64 is a bijection of
// the 64-bit state for any fixed seed, so two distinct chunks of the
// same master seed can never collide, and the avalanche of the
// finalizer decorrelates neighbouring chunks' streams (sequential seeds
// into math/rand's lagged-Fibonacci source would not be independent).
// The c+1 offset keeps chunk 0 from reducing to a plain splitmix of
// the bare seed, which callers might have used elsewhere.
//
// The constants are load-bearing: results of seeded sampling jobs are
// content-addressed by (kind, n, seed), so changing this derivation
// silently invalidates every cached distribution. Treat it like the
// canonical spec serialization — never "improve" it in place.
func ChunkSeed(seed int64, chunk int) int64 {
	z := uint64(seed) + uint64(chunk+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
