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
// Local runs estimate in-process on the sweep engine; -cluster sends K
// shard jobs through an sramd node or coordinator's batch endpoint,
// merges the returned partials with yield.MergePartials, and renders
// the same table. Both paths are byte-identical to the daemon's own
// yield job output at any worker count and any shard count.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"sramtest/internal/cli"
	"sramtest/internal/cluster"
	"sramtest/internal/jobs"
	"sramtest/internal/process"
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

	var (
		res yield.Result
		err error
	)
	if *clusterURL != "" {
		res, err = clusterEstimate(*clusterURL, *shards, *n, *seed, *vref, *method)
	} else {
		res, err = localEstimate(*n, *seed, *vref, *method)
	}
	if err == nil {
		err = report.Emit(os.Stdout, *csv, yield.Report(res))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "yield:", err)
		os.Exit(1)
	}
}

// localEstimate runs the whole estimate in-process. The condition is
// cmd/drv's fixed Monte-Carlo condition — the retention-worst PVT point
// the daemon's yield job also pins.
func localEstimate(n int, seed int64, vref float64, method string) (yield.Result, error) {
	est, err := yield.New(method)
	if err != nil {
		return yield.Result{}, err
	}
	return est.Estimate(context.Background(), yield.Params{
		Cond:    process.Condition{Corner: process.FS, VDD: 1.1, TempC: 125},
		Vref:    vref,
		Samples: n,
		Seed:    seed,
	})
}

// clusterEstimate fans K shard jobs out through the batch endpoint and
// merges the partials. Shard s owns the sample chunks c ≡ s (mod K), so
// the merged result is byte-identical to a local single-shard run with
// the same parameters — the cluster only changes where the solves run.
func clusterEstimate(target string, shards, n int, seed int64, vref float64, method string) (yield.Result, error) {
	return cluster.FanOutShards(target, shards, func(s int) jobs.Spec {
		return jobs.Spec{Kind: jobs.KindYield, Yield: &jobs.YieldSpec{
			Samples: n, Seed: seed, Vref: vref, Method: method,
			Shards: shards, Shard: s,
		}}
	}, yield.MergePartials)
}
