// Command yield estimates the rare-event retention-failure probability
// P(DRV_DS > Vref) of the 6T cell under local Vth variation — the
// manufacturing-yield question behind the paper's DRV analysis, pushed
// to tail depths (5-6σ) where naive Monte-Carlo would need billions of
// solves (internal/yield, DESIGN.md §5.11).
//
// Usage:
//
//	yield [-n N] [-seed S] [-vref V] [-method is|blockade] [-csv]
//	yield -cluster URL [-shards K]   # fan shards out over POST /v1/batch
//
// Local runs are the sramd yield job (jobs.Run) in-process; -cluster
// sends the same spec as K shard jobs through an sramd node or
// coordinator's batch endpoint, merges the returned partials with
// yield.MergePartials, and renders the same table. Both paths are
// byte-identical to the daemon's own yield job output at any worker
// count and any shard count.
package main

import (
	"flag"
	"fmt"
	"os"

	"sramtest/internal/cli"
	"sramtest/internal/cluster"
	"sramtest/internal/jobs"
	"sramtest/internal/report"
	"sramtest/internal/yield"
)

func main() {
	var (
		n          = flag.Int("n", yield.DefaultSamples, "importance/blockade samples")
		seed       = flag.Int64("seed", yield.DefaultSeed, "RNG seed")
		vref       = flag.Float64("vref", yield.DefaultVref, "retention reference voltage (V)")
		method     = flag.String("method", "", `estimator: "is" (default) or "blockade"`)
		csv        = flag.Bool("csv", false, "emit CSV")
		clusterURL = flag.String("cluster", "", "sramd node or coordinator base URL; shard the estimate over POST /v1/batch")
		shards     = flag.Int("shards", 2, "shard jobs to fan out in -cluster mode")
	)
	applyWorkers := cli.Workers(flag.CommandLine)
	startProfile := cli.Profile(flag.CommandLine)
	flag.Parse()
	applyWorkers()
	defer startProfile()()

	sub := jobs.YieldSpec{Samples: *n, Seed: *seed, Vref: *vref, Method: *method}
	if *clusterURL == "" {
		cli.RunJob("yield", jobs.Spec{Kind: jobs.KindYield, CSV: *csv, Yield: &sub})
		return
	}
	// Shard s owns the sample chunks c ≡ s (mod K), so the merged result
	// is byte-identical to the whole job — the cluster only changes where
	// the solves run.
	res, err := cluster.FanOutShards(*clusterURL, *shards, func(s int) jobs.Spec {
		shard := sub
		shard.Shards, shard.Shard = *shards, s
		return jobs.Spec{Kind: jobs.KindYield, Yield: &shard}
	}, yield.MergePartials)
	if err == nil {
		err = report.Emit(os.Stdout, *csv, yield.Report(res))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "yield:", err)
		os.Exit(1)
	}
}
