// Package cli holds the small flag helpers shared by the cmd tools, so
// every binary exposes the same knobs with the same semantics instead of
// each re-implementing them.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"sramtest/internal/engine"
	_ "sramtest/internal/engine/spicebe"   // default backend
	_ "sramtest/internal/engine/surrogate" // -engine surrogate
	_ "sramtest/internal/engine/tiered"    // -engine tiered
	"sramtest/internal/jobs"
	"sramtest/internal/sweep"
)

// Workers registers the standard -workers flag on fs and returns an
// apply function to call after fs.Parse: it installs the parsed value as
// the process-wide sweep default (sweep.SetDefaultWorkers), preserving
// the usual fallback chain — flag, then $SRAMTEST_WORKERS, then
// GOMAXPROCS. Worker count never affects results, only wall-clock time.
func Workers(fs *flag.FlagSet) (apply func()) {
	n := fs.Int("workers", 0, "parallel sweep workers (0 = $SRAMTEST_WORKERS or GOMAXPROCS)")
	return func() { sweep.SetDefaultWorkers(*n) }
}

// Engine registers the standard -engine flag on fs and returns an apply
// function to call after fs.Parse: it resolves the chosen backend and
// installs it as the process-wide default (engine.SetDefault), so every
// sweep whose options leave Engine nil follows the flag. The empty value
// keeps the exact "spice" backend. By the tiered backend's equivalence
// contract, switching engines changes solve counts, never results.
func Engine(fs *flag.FlagSet) (apply func() error) {
	name := fs.String("engine", "",
		fmt.Sprintf("simulation engine: %s (default spice)", strings.Join(engine.Names(), "|")))
	return func() error {
		e, err := engine.Resolve(*name)
		if err != nil {
			return err
		}
		engine.SetDefault(e)
		return nil
	}
}

// RunJob runs spec through jobs.Run, the runner behind every sramd job,
// and writes the job's bytes to stdout, so a spec-shaped CLI prints
// exactly what the daemon stores for the same spec. It exits 2 on an
// invalid spec and 1 on a failed run.
func RunJob(prog string, spec jobs.Spec) {
	b, err := jobs.Run(context.Background(), spec)
	if err == nil {
		_, err = os.Stdout.Write(b)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
		if errors.Is(err, jobs.ErrBadSpec) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// Profile registers the standard -cpuprofile/-memprofile flags on fs and
// returns a start function to call after fs.Parse. start begins CPU
// profiling (when requested) and returns a stop function the caller must
// defer: stop ends the CPU profile and writes the heap profile. Errors
// are reported on stderr rather than aborting the run — a failed profile
// must never cost a finished sweep.
func Profile(fs *flag.FlagSet) (start func() (stop func())) {
	cpu := fs.String("cpuprofile", "", "write a CPU profile to this file")
	mem := fs.String("memprofile", "", "write a heap profile to this file on exit")
	return func() func() {
		var cpuFile *os.File
		if *cpu != "" {
			f, err := os.Create(*cpu)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			} else if err := pprof.StartCPUProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
				f.Close()
			} else {
				cpuFile = f
			}
		}
		return func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			if *mem != "" {
				f, err := os.Create(*mem)
				if err != nil {
					fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
					return
				}
				defer f.Close()
				runtime.GC() // materialize the final live set
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				}
			}
		}
	}
}
