package scenario

import (
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"repro/internal/server/wire"
)

// answered is the kill trigger the crash scenarios share: the node has
// acknowledged at least k updates of the load in flight.
func answered(k uint64) func(wire.StatsReply) bool {
	return func(r wire.StatsReply) bool { return updates(r) >= k }
}

// TestCrash: an acknowledged update survives kill -9 (DESIGN.md §13).
// SIGKILL a durable node mid-load — no drain, no checkpoint — restart it on
// the same directory and audit every key against the client's ledger.
func TestCrash(t *testing.T) {
	t.Parallel()
	s := start(t, 1, "file", 2000, "-frames", "128")
	n := s.nodes[0]
	loaded := s.startLedgerLoad()
	s.await(n, "300 acknowledged updates", answered(300))
	s.kill(n, syscall.SIGKILL)
	loaded() // exit 0: the clients stop at the dead socket, the ledger is not vacuous
	s.restart(n)
	s.finish()
}

// TestCorrupt: bit-rot in a stopped store is healed by WAL replay
// (DESIGN.md §15). Same as TestCrash with three WAL-covered pages damaged
// between the kill and the restart, and the scrubber armed for the drain.
func TestCorrupt(t *testing.T) {
	t.Parallel()
	s := start(t, 1, "file", 2000, "-frames", "128")
	n := s.nodes[0]
	loaded := s.startLedgerLoad()
	s.await(n, "300 acknowledged updates", answered(300))
	s.kill(n, syscall.SIGKILL)
	loaded()
	s.corrupt(n, 3)
	s.restart(n, "-scrub-interval", "50ms")
	s.finish()
}

// TestCluster: three independent processes behind the ring-aware client
// (DESIGN.md §16). Request share and hit ratio are gated, a member is
// rebalanced away and drained, every acknowledged update is found on the
// shrunk cluster, and a load run absorbs the SIGKILL of a second member.
func TestCluster(t *testing.T) {
	t.Parallel()
	s := start(t, 3, "sim", 2000, "-frames", "128")
	n1, n2 := s.nodes[1], s.nodes[2]
	// Reads only: the ledger verify asserts untouched keys still hold the
	// loader's filler, so the ledger load must be the first writer. Ring
	// ownership over this population is max/min ≈ 1.2; 2.5 gates real
	// imbalance without flaking.
	s.load("-clients", "4", "-duration", "1s", "-get", "99", "-update", "0", "-scan", "1",
		"-max-skew", "2.5", "-min-hit-ratio", "0.01")
	s.startLedgerLoad("-duration", "1s")()
	s.rebalance(n2) // epoch=1 → remove complete → epoch=2
	s.stop(n2)
	s.verify() // n2's keys were copied before it began shedding

	// A cluster-mode run counts transport errors instead of dying of them.
	// Reads only again, so the ledger still describes the survivors' data.
	before := s.stats(n1).Server.Requests
	loaded := s.startLoad("-clients", "4", "-duration", "2s", "-update", "0")
	s.await(n1, "500 requests of the load", func(r wire.StatsReply) bool { return r.Server.Requests >= before+500 })
	s.kill(n1, syscall.SIGKILL)
	if out := loaded(); !regexp.MustCompile(`lrukload: ops=[1-9]`).MatchString(out) {
		t.Errorf("load across the node kill did no work:\n%s", out)
	}
	s.ledger = "" // n1 was memory-backed: its share of the ledger died with it (TestKilledMemberReturns is the durable case)
	s.finish()
}

// TestTrace: one request, one tree, across processes (DESIGN.md §17). A
// traced load's slowest trace and a traced rebalance both reassemble from
// the nodes' /spans rings, and /metrics links latency buckets to trace ids.
func TestTrace(t *testing.T) {
	t.Parallel()
	// The rings are sized well above the run's span volume so the slowest
	// trace is still resident when asked for; 128 frames force real misses,
	// which gives the waterfall its disk spans.
	s := start(t, 3, "sim", 2000, "-frames", "128",
		"-trace-spans", "16384", "-trace-slow", "250ms")
	// No scans and a low fraction: one traced scan sprays thousands of spans
	// and would churn the rings past the trace being looked for.
	s.load("-clients", "4", "-duration", "1s", "-get", "95", "-update", "5", "-scan", "0", "-trace-sample", "0.02")
	if len(s.traces) != 1 {
		t.Fatal("traced load printed no slowest-trace line")
	}
	if out, _ := s.trace(s.traces[0]); !regexp.MustCompile(`\[n.\] request`).MatchString(out) || !strings.Contains(out, "queue_wait") {
		t.Errorf("waterfall lacks a node's request or queue_wait span:\n%s", out)
	}
	exemplar := regexp.MustCompile(`_exemplar\{.*trace_id="[0-9a-f]{16}"`)
	if !slices.ContainsFunc(s.nodes, func(n *node) bool {
		_, body := httpGet("http://" + n.obs + "/metrics")
		return exemplar.MatchString(body)
	}) {
		t.Error("no node's /metrics carried a trace-id exemplar")
	}

	// Every admin request of the handoff ran under one trace: it must cross
	// at least the two survivors.
	out := s.rebalance(s.nodes[2])
	if len(s.traces) != 2 || !strings.Contains(out, "lrukcluster: phase flip_sources") || !strings.Contains(out, "lrukcluster: phase copy") {
		t.Fatalf("traced remove lacks its trace id or phase lines:\n%s", out)
	}
	_, summary := s.trace(s.traces[1])
	m := regexp.MustCompile(` nodes=(\d+) `).FindStringSubmatch(summary)
	if m == nil {
		t.Fatalf("trace summary names no node count: %s", summary)
	}
	if crossed, _ := strconv.Atoi(m[1]); crossed < 2 {
		t.Errorf("rebalance trace crossed %d nodes, want >= 2: %s", crossed, summary)
	}
	s.finish()
}

// TestCrashBitRotDirtyEviction crosses three faults: 16 frames against
// 2,000 customers make the ledger load evict dirty pages throughout, the
// node is SIGKILLed, WAL-covered pages rot while it is down, and the
// scrubber runs over the recovered store while the ledger is audited.
func TestCrashBitRotDirtyEviction(t *testing.T) {
	t.Parallel()
	s := start(t, 1, "file", 2000, "-frames", "16")
	n := s.nodes[0]
	loaded := s.startLedgerLoad()
	s.await(n, "300 acknowledged updates over dirty evictions", func(r wire.StatsReply) bool {
		return updates(r) >= 300 && r.DB.Pool.Evictions > 0 && r.DB.Pool.WriteBacks > 0
	})
	s.kill(n, syscall.SIGKILL)
	loaded()
	s.corrupt(n, 3)
	s.restart(n, "-scrub-interval", "50ms")
	s.finish()
}

// TestKillAmongForcedCheckpoints: with the WAL capped at 128 KB a checkpoint
// (page file fsync, meta rewrite, WAL truncation) runs every ~32 updates,
// so a SIGKILL lands in or next to one. Three cycles on one data dir; each
// kill waits for a checkpoint taken during that cycle's load. The key
// space is small so that every cycle's load overwrites every key (≈ 25
// updates per key before the kill): a fresh ledger's "never updated, must
// be zero" claim about keys it did not touch would be false after cycle 1.
func TestKillAmongForcedCheckpoints(t *testing.T) {
	t.Parallel()
	s := start(t, 1, "file", 64, "-frames", "16", "-max-wal-bytes", "131072")
	n := s.nodes[0]
	for cycle := 0; cycle < 3; cycle++ {
		base := s.stats(n).DB.Disk.Checkpoints
		loaded := s.startLedgerLoad()
		s.await(n, "a checkpoint under 1600 acknowledged updates", func(r wire.StatsReply) bool {
			return updates(r) >= 1600 && r.DB.Disk.Checkpoints > base
		})
		s.kill(n, syscall.SIGKILL)
		loaded()
		s.restart(n)
		s.verify()
	}
	s.finish()
}

// TestKilledMemberReturns: a durable cluster member is SIGKILLed while a
// ledger load runs through the ring and restarts on its own data dir with
// the same spec while the load is still running (a cluster-mode ledger
// client rides out the outage, re-offering each unacknowledged fill). The
// whole ledger — its keys and the survivors' — then verifies through the
// ring.
func TestKilledMemberReturns(t *testing.T) {
	t.Parallel()
	s := start(t, 3, "file", 2000, "-frames", "128")
	n1 := s.nodes[1]
	loaded := s.startLedgerLoad("-duration", "3s")
	s.await(n1, "100 acknowledged updates on n1", answered(100))
	s.kill(n1, syscall.SIGKILL)
	s.restart(n1)
	if got := s.stats(n1).Server.ViewEpoch; got != 1 {
		t.Errorf("n1 came back holding epoch %d, want the spec's 1", got)
	}
	loaded()
	s.finish()
}
