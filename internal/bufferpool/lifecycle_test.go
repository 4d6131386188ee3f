package bufferpool

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/storage/sim"
)

// poolGoroutines counts the live goroutines a Pool's lifecycle started:
// those Start launched and any those spawned in turn. It reads creation
// sites off the stack dump rather than runtime.NumGoroutine, which other
// tests' goroutines winding down would move.
func poolGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "created by repro/internal/bufferpool.(*Pool).")
}

// TestLifecycleGoroutines pins the background lifecycle to what it runs: a
// started pool is the writer plus, with ScrubInterval set, the scrubber —
// two goroutines under one context, with no helpers relaying a stop signal.
// Close waits both out and Start after Close starts nothing.
func TestLifecycleGoroutines(t *testing.T) {
	leakcheck.Check(t)
	p := NewWithConfig(newFaultyDisk(sim.ServiceModel{}), 2, core.NewSyncReplacer(2, core.Options{}),
		Config{ScrubInterval: time.Hour})
	base := poolGoroutines()

	p.Start()
	p.Start() // a second Start is a no-op
	// A loop would spawn a helper as it begins running, so look again once
	// both have had time to reach their select.
	for _, settle := range []time.Duration{0, 20 * time.Millisecond} {
		time.Sleep(settle)
		if got := poolGoroutines() - base; got != 2 {
			t.Fatalf("started pool runs %d goroutines %v after Start, want 2 (writer + scrubber)", got, settle)
		}
	}

	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := poolGoroutines() - base; got != 0 {
		t.Errorf("%d pool goroutines outlived Close", got)
	}
	p.Start()
	if got := poolGoroutines() - base; got != 0 {
		t.Errorf("Start after Close launched %d goroutines, want 0", got)
	}
}
