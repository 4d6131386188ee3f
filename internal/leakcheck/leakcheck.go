// Package leakcheck fails a test that leaves goroutines behind. It is a
// dependency-free sanity net for lifecycle code (background scrubbers,
// janitors, coalesced-load loaders): snapshot the goroutine count when the
// test starts, and at cleanup poll until the count returns to the baseline
// or a grace period expires, then fail with a full stack dump.
//
// The count-based check is deliberately coarse — it cannot name the leaked
// goroutine — but it needs no runtime introspection beyond the standard
// library and is immune to goroutine-identity churn from the testing
// framework itself. The grace period absorbs goroutines that are mid-exit
// when the test body returns (timer callbacks, closing channels).
package leakcheck

import (
	"fmt"
	"runtime"
	"time"
)

// T is the part of *testing.T that Check uses. Taking it rather than
// *testing.T keeps the testing package out of binaries that link this
// package for Wait.
type T interface {
	Helper()
	Cleanup(func())
	Error(args ...any)
}

// Check snapshots the current goroutine count and registers a cleanup that
// fails t if, within the grace period, the count has not returned to the
// baseline. Call it first in any test that starts background goroutines.
func Check(t T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		if err := Wait(base, 2*time.Second); err != nil {
			t.Error(err)
		}
	})
}

// Wait polls until the goroutine count returns to the base level or the
// grace period expires, and reports the overshoot (with full stacks) as an
// error. It is the non-test form of Check, for long-running binaries —
// cmd/lrukd uses it to prove a drained shutdown leaked nothing before
// printing its clean-exit line.
func Wait(base int, grace time.Duration) error {
	deadline := time.Now().Add(grace)
	var n int
	for {
		n = runtime.NumGoroutine()
		if n <= base {
			return nil
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return fmt.Errorf("leakcheck: %d goroutines, want <= %d; stacks:\n%s", n, base, buf)
}
