package gscalar_test

import (
	"testing"
	"time"

	"gscalar"
)

// hsCeiling is the perf-smoke wall-clock budget for one HS run on the
// serial loop. HS simulates in well under 0.2 s on a modest single core;
// the ceiling is deliberately generous (slow CI hosts, race detector) so
// only a pathological simulator-performance regression — a hot path turned
// quadratic, allocation storms, re-coalescing per stall cycle — trips it.
const hsCeiling = 3 * time.Second * raceMultiplier

// TestPerfSmokeHS is the `make check` simulator-performance guard: it fails
// when the HS workload exceeds a generous wall-clock ceiling. It runs in
// short mode on purpose — the point is to catch order-of-magnitude
// regressions on every checkin, not to benchmark (BENCH_core.json rows are
// the measurements).
func TestPerfSmokeHS(t *testing.T) {
	cfg := gscalar.DefaultConfig()
	t0 := time.Now()
	if _, err := runWorkloadVia(t, cfg, gscalar.GScalar, "HS", 1); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(t0); el > hsCeiling {
		t.Fatalf("HS took %v, ceiling %v — simulator performance regression", el, hsCeiling)
	}
}
