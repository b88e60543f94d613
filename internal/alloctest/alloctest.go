// Package alloctest is the single gate for allocation assertions, by
// count (Run, Assert) or by bytes (Bytes).
//
// Alloc assertions (testing.AllocsPerRun) are precise on ordinary builds
// but flaky under the race detector: race instrumentation allocates its
// own bookkeeping (shadow state, sync-event buffers) inside the measured
// function, so counts come out both higher and nondeterministic. Rather
// than every test carrying its own ad-hoc skip — the pattern this package
// replaces — alloc assertions route through Run/Assert/Bytes, which skip
// under `-race` with one documented reason. A test skipped here still
// runs its functional body elsewhere; only the allocation *count* is
// unasserted.
package alloctest

import (
	"runtime"
	"testing"
)

// Run measures the average allocations of runs calls of f, skipping the
// calling test under the race detector (see the package comment for why
// the count cannot be asserted there).
func Run(t testing.TB, runs int, f func()) float64 {
	t.Helper()
	if RaceEnabled {
		t.Skip("alloctest: race instrumentation allocates inside AllocsPerRun; count assertions are only meaningful on non-race builds")
	}
	return testing.AllocsPerRun(runs, f)
}

// Bytes measures the average bytes runs calls of f allocate, skipping the
// calling test under the race detector like Run.
func Bytes(t testing.TB, runs int, f func()) float64 {
	t.Helper()
	if RaceEnabled {
		t.Skip("alloctest: race instrumentation allocates inside the measured calls; byte assertions are only meaningful on non-race builds")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// Assert fails t when the average allocations of runs calls of f exceed
// max; under the race detector it skips like Run.
func Assert(t testing.TB, runs int, max float64, f func()) {
	t.Helper()
	if avg := Run(t, runs, f); avg > max {
		t.Fatalf("allocs/op = %.1f, want ≤ %.1f", avg, max)
	}
}
