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
// started pool with ScrubInterval set runs the scrubber, one goroutine,
// with no helpers relaying a stop signal; without ScrubInterval Start
// launches nothing. Close waits the scrubber out and Start after Close
// starts nothing.
func TestLifecycleGoroutines(t *testing.T) {
	leakcheck.Check(t)
	for _, tc := range []struct {
		scrub time.Duration
		want  int
	}{{time.Hour, 1}, {0, 0}} {
		p := NewWithConfig(newFaultyDisk(sim.ServiceModel{}), 2, core.NewSyncReplacer(2, core.Options{}),
			Config{ScrubInterval: tc.scrub})
		base := poolGoroutines()

		p.Start()
		p.Start() // a second Start is a no-op
		// A loop would spawn a helper as it begins running, so look again
		// once it has had time to reach its select.
		for _, settle := range []time.Duration{0, 20 * time.Millisecond} {
			time.Sleep(settle)
			if got := poolGoroutines() - base; got != tc.want {
				t.Fatalf("ScrubInterval %v: started pool runs %d goroutines %v after Start, want %d",
					tc.scrub, got, settle, tc.want)
			}
		}

		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if got := poolGoroutines() - base; got != 0 {
			t.Errorf("ScrubInterval %v: %d pool goroutines outlived Close", tc.scrub, got)
		}
		p.Start()
		if got := poolGoroutines() - base; got != 0 {
			t.Errorf("ScrubInterval %v: Start after Close launched %d goroutines, want 0", tc.scrub, got)
		}
	}
}
