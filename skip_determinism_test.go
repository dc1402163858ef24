package gscalar_test

import (
	"testing"

	"gscalar"
)

// runSkip simulates one (arch, workload) point on the serial loop with the
// given idle-skip setting.
func runSkip(t *testing.T, arch gscalar.Arch, abbr string, disableSkip bool) gscalar.Result {
	t.Helper()
	cfg := gscalar.DefaultConfig()
	cfg.DisableIdleSkip = disableSkip
	res, err := runWorkloadVia(t, cfg, arch, abbr, 1)
	if err != nil {
		t.Fatalf("%s on %s (noskip=%v): %v", abbr, arch, disableSkip, err)
	}
	return res
}

// TestIdleSkipDeterminism is the acceptance bar for event-driven idle
// skipping: with skipping enabled (the default) every workload must produce
// a Result bit-identical — cycles, every statistic, and exact floating-
// point energy/power — to a skip-disabled run on the serial loop. Skipped
// cycles mutate no state, so even transient-internal-state-derived numbers
// must agree. (The relaxed loop makes no such promise: its chip-wide skip
// also moves the epoch grid.) In short mode a 3-workload subset runs; the
// full 17-workload registry runs without -short (the skip-disabled runs are
// the slow part — they are the very cycles skipping eliminates).
func TestIdleSkipDeterminism(t *testing.T) {
	workloadSet := gscalar.Workloads()
	archSet := []gscalar.Arch{gscalar.Baseline, gscalar.GScalar}
	if testing.Short() {
		workloadSet = []string{"HS", "MQ", "SAD"}
	}
	for _, arch := range archSet {
		for _, abbr := range workloadSet {
			skip := runSkip(t, arch, abbr, false)
			noskip := runSkip(t, arch, abbr, true)
			assertIdentical(t, abbr, arch, skip, noskip)
		}
	}
}
