package cli

import (
	"flag"
	"testing"

	"sramtest/internal/sweep"
)

func TestWorkersFlag(t *testing.T) {
	defer sweep.SetDefaultWorkers(0)

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	apply := Workers(fs)
	if err := fs.Parse([]string{"-workers", "5"}); err != nil {
		t.Fatal(err)
	}
	apply()
	if got := sweep.DefaultWorkers(); got != 5 {
		t.Errorf("DefaultWorkers after apply = %d, want 5", got)
	}
}

func TestWorkersFlagDefaultKeepsEnvFallback(t *testing.T) {
	defer sweep.SetDefaultWorkers(0)
	t.Setenv(sweep.EnvWorkers, "7")

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	apply := Workers(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	apply()
	if got := sweep.DefaultWorkers(); got != 7 {
		t.Errorf("unset flag must keep the env fallback: got %d, want 7", got)
	}
}
