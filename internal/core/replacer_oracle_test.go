package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/policy"
	"repro/internal/stats"
)

// bruteReplacer is the pool-facing face written from the definitions with
// no index at all: every Evict scans all blocks and recomputes the
// Definition 2.2 victim from scratch. It shares no code with histTable, so
// it referees Replacer and SyncReplacer against the paper rather than
// against each other.
//
// The retention demon is modelled as the FIFO the production table
// documents (§2.1.3, lazily validated): blocks are considered in the order
// their pages left residency, and one that has not aged out yet holds back
// those queued behind it.
type bruteReplacer struct {
	k        int
	crp, rip policy.Tick
	clock    policy.Tick
	blocks   map[policy.PageID]*bruteBlock
	retired  []retired
}

type bruteBlock struct {
	times               []policy.Tick // times[0] = HIST(p,1) … times[k-1] = HIST(p,K)
	last                policy.Tick
	resident, evictable bool
}

func newBruteReplacer(k int, opts Options) *bruteReplacer {
	return &bruteReplacer{
		k: k, crp: opts.CorrelatedReferencePeriod, rip: opts.RetainedInformationPeriod,
		blocks: make(map[policy.PageID]*bruteBlock),
	}
}

func (b *bruteReplacer) admit(p policy.PageID) {
	blk, ok := b.blocks[p]
	if !ok {
		blk = &bruteBlock{times: make([]policy.Tick, b.k)}
		b.blocks[p] = blk
	} else {
		copy(blk.times[1:], blk.times)
	}
	blk.times[0], blk.last = b.clock, b.clock
	blk.resident, blk.evictable = true, true
}

func (b *bruteReplacer) leave(p policy.PageID, blk *bruteBlock) {
	blk.resident, blk.evictable = false, false
	if b.rip > 0 {
		b.retired = append(b.retired, retired{page: p, last: blk.last})
	}
}

// RecordAccess is Figure 2.1 for one reference; hit selects the buffered
// RecordHit contract (a reference to a page that is no longer resident
// costs a tick and nothing else) and reports whether it was dropped.
func (b *bruteReplacer) RecordAccess(p policy.PageID, hit bool) (dropped bool) {
	b.clock++
	for b.rip > 0 && len(b.retired) > 0 && b.clock-b.retired[0].last > b.rip {
		head := b.retired[0]
		b.retired = b.retired[1:]
		if blk, ok := b.blocks[head.page]; ok && !blk.resident && blk.last == head.last {
			delete(b.blocks, head.page)
		}
	}
	blk, ok := b.blocks[p]
	switch {
	case ok && blk.resident && b.crp > 0 && b.clock-blk.last <= b.crp:
		blk.last = b.clock
	case ok && blk.resident:
		span := blk.last - blk.times[0]
		for i := b.k - 1; i >= 1; i-- {
			if blk.times[i-1] != 0 {
				blk.times[i] = blk.times[i-1] + span
			}
		}
		blk.times[0], blk.last = b.clock, b.clock
	case hit:
		return true
	default:
		b.admit(p)
	}
	return false
}

func (b *bruteReplacer) SetEvictable(p policy.PageID, evictable bool) {
	if blk, ok := b.blocks[p]; ok && blk.resident {
		blk.evictable = evictable
	}
}

func (b *bruteReplacer) Restore(p policy.PageID) {
	if blk, ok := b.blocks[p]; !ok {
		b.admit(p)
	} else if !blk.resident {
		blk.resident, blk.evictable = true, true
	}
}

// Evict picks, among evictable pages outside their Correlated Reference
// Period, the maximal Backward K-distance b_t(p,K) = t − HIST(p,K), with ∞
// for HIST(p,K) = 0, ties broken by the older HIST(p,1) and then the
// smaller page id; if every evictable page is inside its period it picks
// among them all.
func (b *bruteReplacer) Evict() (policy.PageID, bool) {
	victim, found := policy.InvalidPage, false
	for _, honourCRP := range []bool{true, false} {
		for p, blk := range b.blocks {
			if !blk.evictable || (honourCRP && b.crp > 0 && b.clock-blk.last <= b.crp) {
				continue
			}
			if !found || b.further(p, blk, victim, b.blocks[victim]) {
				victim, found = p, true
			}
		}
		if found {
			b.leave(victim, b.blocks[victim])
			return victim, true
		}
	}
	return policy.InvalidPage, false
}

// further reports whether p is the better victim of the two.
func (b *bruteReplacer) further(p policy.PageID, x *bruteBlock, q policy.PageID, y *bruteBlock) bool {
	xInf, yInf := x.times[b.k-1] == 0, y.times[b.k-1] == 0
	if xInf != yInf {
		return xInf
	}
	if dx, dy := b.clock-x.times[b.k-1], b.clock-y.times[b.k-1]; !xInf && dx != dy {
		return dx > dy
	}
	if x.times[0] != y.times[0] {
		return x.times[0] < y.times[0]
	}
	return p < q
}

func (b *bruteReplacer) evictable() int {
	n := 0
	for _, blk := range b.blocks {
		if blk.evictable {
			n++
		}
	}
	return n
}

// TestReplacersMatchBruteForce drives the plain Replacer, a SyncReplacer
// with a tiny ring and the brute-force model through the same random
// RecordAccess / RecordHit / SetEvictable / Restore / Evict sequences.
// Every victim, every candidate count, the history footprint, the
// dropped-hit count and every surviving HIST/LAST value must agree, across
// K, Correlated Reference Period and Retained Information Period.
func TestReplacersMatchBruteForce(t *testing.T) {
	const pages = 20
	for _, k := range []int{1, 2, 3} {
		for _, crp := range []policy.Tick{0, 3} {
			for _, rip := range []policy.Tick{0, 12} {
				opts := Options{CorrelatedReferencePeriod: crp, RetainedInformationPeriod: rip}
				t.Run(fmt.Sprintf("K=%d/CRP=%d/RIP=%d", k, crp, rip), func(t *testing.T) {
					for seed := uint64(1); seed <= 3; seed++ {
						runBruteDifferential(t, k, opts, seed, pages)
					}
				})
			}
		}
	}
}

func runBruteDifferential(t *testing.T, k int, opts Options, seed uint64, pages int) {
	brute := newBruteReplacer(k, opts)
	plain := NewReplacer(k, opts)
	ring := newSyncReplacer(k, opts, 5)
	rng := stats.NewRNG(seed)
	dropped := uint64(0)
	var evicted []policy.PageID // victims not yet restored or re-admitted
	for op := 0; op < 6000; op++ {
		p := policy.PageID(rng.Intn(pages))
		switch rng.Intn(12) {
		case 0, 1, 2:
			brute.RecordAccess(p, false)
			plain.RecordAccess(p)
			ring.RecordAccess(p)
		case 3, 4, 5:
			// The buffered hit contract: the plain Replacer has no RecordHit, so
			// it is told about the reference only when the model says the page
			// is resident, and ticks alone otherwise.
			if brute.RecordAccess(p, true) {
				plain.table.tick()
				dropped++
			} else {
				plain.RecordAccess(p)
			}
			ring.RecordHit(p)
		case 6, 7:
			brute.SetEvictable(p, true)
			plain.SetEvictable(p, true)
			ring.SetEvictable(p, true)
		case 8:
			brute.SetEvictable(p, false)
			plain.SetEvictable(p, false)
			ring.SetEvictable(p, false)
		case 9, 10:
			want, wantOK := brute.Evict()
			v1, ok1 := plain.Evict()
			v2, ok2 := ring.Evict()
			if v1 != want || ok1 != wantOK || v2 != want || ok2 != wantOK {
				t.Fatalf("seed %d op %d: Evict: Replacer (%d,%v), SyncReplacer (%d,%v), brute force (%d,%v)",
					seed, op, v1, ok1, v2, ok2, want, wantOK)
			}
			if wantOK {
				evicted = append(evicted, want)
			}
		case 11:
			// Restore an earlier victim — possibly after its block was purged,
			// or after a reference already re-admitted it.
			if len(evicted) == 0 {
				break
			}
			i := rng.Intn(len(evicted))
			v := evicted[i]
			evicted = append(evicted[:i], evicted[i+1:]...)
			brute.Restore(v)
			plain.Restore(v)
			ring.Restore(v)
		}
		if op%13 == 0 {
			want := brute.evictable()
			if g1, g2 := plain.PolicyStats().Evictable, ring.PolicyStats().Evictable; g1 != want || g2 != want {
				t.Fatalf("seed %d op %d: Evictable: Replacer %d, SyncReplacer %d, brute force %d", seed, op, g1, g2, want)
			}
		}
	}
	if g1, g2, want := plain.PolicyStats().HistoryBlocks, ring.PolicyStats().HistoryBlocks, len(brute.blocks); g1 != want || g2 != want {
		t.Errorf("seed %d: HistoryBlocks: Replacer %d, SyncReplacer %d, brute force %d", seed, g1, g2, want)
	}
	if got := ring.BatchStats().Dropped; got != dropped {
		t.Errorf("seed %d: SyncReplacer dropped %d stale hits, brute force %d", seed, got, dropped)
	}
	st := plain.PolicyStats()
	if got := ring.PolicyStats(); got != st {
		t.Errorf("seed %d: policy stats: SyncReplacer %+v, Replacer %+v", seed, got, st)
	}
	if st.Evictions == 0 || dropped == 0 || (opts.CorrelatedReferencePeriod > 0) != (st.Collapses > 0) ||
		(opts.RetainedInformationPeriod > 0) != (st.Purges > 0) {
		t.Errorf("seed %d: sequence did not exercise evictions, stale hits, collapses and purges: %+v, %d dropped", seed, st, dropped)
	}
	checkAgainstBrute(t, plain.table, brute)
	checkAgainstBrute(t, ring.r.table, brute)
	// Drain: the full remaining eviction order.
	for {
		want, wantOK := brute.Evict()
		v1, ok1 := plain.Evict()
		v2, ok2 := ring.Evict()
		if v1 != want || ok1 != wantOK || v2 != want || ok2 != wantOK {
			t.Fatalf("seed %d: final order: Replacer (%d,%v), SyncReplacer (%d,%v), brute force (%d,%v)",
				seed, v1, ok1, v2, ok2, want, wantOK)
		}
		if !wantOK {
			return
		}
	}
}

// checkAgainstBrute asserts tbl's victim index is exact (checkIndex) and
// that it holds the model's blocks, no others, with the model's clock and
// every HIST, LAST, residency and candidacy value.
func checkAgainstBrute(t *testing.T, tbl *histTable, brute *bruteReplacer) {
	t.Helper()
	checkIndex(t, tbl)
	if tbl.clock != brute.clock {
		t.Errorf("clock %d, brute force %d", tbl.clock, brute.clock)
	}
	if len(tbl.pages) != len(brute.blocks) {
		t.Errorf("%d HIST blocks, brute force %d", len(tbl.pages), len(brute.blocks))
	}
	for p, blk := range brute.blocks {
		h, ok := tbl.pages[p]
		if !ok {
			t.Fatalf("page %d has no HIST block", p)
		}
		if h.last != blk.last || h.resident != blk.resident || h.candidate != blk.evictable {
			t.Fatalf("page %d: block %+v, brute force %+v", p, *h, *blk)
		}
		for i := range blk.times {
			if h.times[i] != blk.times[i] {
				t.Fatalf("page %d: HIST %v, brute force %v", p, h.times, blk.times)
			}
		}
	}
}

// TestRecycledBlocksAgainstBruteForce walks a SyncReplacer through both
// fates of a purged HIST block, in lockstep with the brute-force model.
// A victim retired by Evict and purged by a tick of the next drain is
// still dirty and filed when it leaves the table: it must not be recycled,
// or a page admitted in the same drain would take it over and the sync
// would look for the old entry under the new page id. A victim synced
// clean before its purge is recycled, and the next admission reuses it.
func TestRecycledBlocksAgainstBruteForce(t *testing.T) {
	const a, b, c, d, e = policy.PageID(1), policy.PageID(2), policy.PageID(3), policy.PageID(4), policy.PageID(5)
	opts := Options{CorrelatedReferencePeriod: 1, RetainedInformationPeriod: 2}
	s := newSyncReplacer(2, opts, 64) // drains only when the test flushes
	brute := newBruteReplacer(2, opts)
	access := func(p policy.PageID) {
		brute.RecordAccess(p, false)
		s.RecordAccess(p)
	}
	hit := func(p policy.PageID) {
		brute.RecordAccess(p, true)
		s.RecordHit(p)
	}
	evict := func(want policy.PageID) {
		t.Helper()
		if v, ok := brute.Evict(); !ok || v != want {
			t.Fatalf("brute force evicted (%d,%v), want %d", v, ok, want)
		}
		if v, ok := s.Evict(); !ok || v != want {
			t.Fatalf("SyncReplacer evicted (%d,%v), want %d", v, ok, want)
		}
	}
	table := s.r.table

	access(a)                                    // tick 1
	access(b)                                    // tick 2
	access(c)                                    // tick 3
	evict(a)                                     // flush; a retired, dirty and filed until the next sync
	hit(b)                                       // tick 4 purges a (LAST 1) before this drain's sync
	access(d)                                    // tick 5: a fresh block, not a's
	if got := s.PolicyStats().Purges; got != 1 { // drain and sync
		t.Fatalf("purges = %d, want a's", got)
	}
	if len(table.free) != 0 {
		t.Fatalf("a's block, purged while filed, was recycled")
	}
	checkAgainstBrute(t, table, brute)

	evict(c) // the only page outside its CRP at clock 5
	evict(d) // every page is inside its CRP and d is at ∞; the search syncs c clean
	hit(b)   // tick 6 purges c (LAST 3), clean, so recycled
	if got := s.PolicyStats().Purges; got != 2 || len(table.free) != 1 {
		t.Fatalf("purges = %d, free list %d; want c's block recycled", got, len(table.free))
	}
	dBlock := table.pages[d] // retired at LAST 5, synced clean at that drain's end
	hit(b)
	hit(b)    // ticks 7, 8; tick 8 purges d
	access(e) // tick 9 reuses d's block, the last recycled
	s.PolicyStats()
	if table.pages[e] != dBlock || len(table.free) != 1 {
		t.Fatalf("e did not reuse d's purged block (free list %d)", len(table.free))
	}
	checkAgainstBrute(t, table, brute)
	for {
		want, wantOK := brute.Evict()
		v, ok := s.Evict()
		if v != want || ok != wantOK {
			t.Fatalf("final order: SyncReplacer (%d,%v), brute force (%d,%v)", v, ok, want, wantOK)
		}
		if !ok {
			break
		}
	}
}

// TestConcurrentHistoryLinearises checks that whatever interleaving many
// goroutines produce, the replacer behaves as the plain Replacer and the
// brute-force model would on ONE serial history — the order events entered
// the ring. The drain hook and the tracer both run under the replacer's
// mutex, so together they record that history (applied events, with each
// victim selection at the point it happened); replaying it must reproduce
// every victim, the policy counters, every surviving block and the full
// final eviction order. Both periods are live, so the Correlated Reference
// Period is judged in ring-order ticks, and purged blocks are recycled.
func TestConcurrentHistoryLinearises(t *testing.T) {
	const (
		pages   = 48
		evictOp = uint8(255) // history marker: Evict selected this page
	)
	for _, crp := range []policy.Tick{2, 8} {
		t.Run(fmt.Sprintf("CRP=%d", crp), func(t *testing.T) {
			opts := Options{CorrelatedReferencePeriod: crp, RetainedInformationPeriod: 40}
			s := newSyncReplacer(2, opts, 16)
			var history []event
			s.drainHook = func(evs []event) { history = append(history, evs...) }
			s.SetTracer(victimRecorder(func(p policy.PageID) {
				history = append(history, event{page: p, kind: evictOp})
			}))
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := stats.NewRNG(uint64(100 + g))
					for i := 0; i < 3000; i++ {
						stormOp(s, rng, pages)
					}
				}(g)
			}
			wg.Wait()
			got := s.PolicyStats() // drains the tail of the ring into history
			s.SetTracer(nil)
			s.drainHook = nil

			plain := NewReplacer(2, opts)
			brute := newBruteReplacer(2, opts)
			dropped := uint64(0)
			for i, e := range history {
				switch e.kind {
				case evAccess:
					brute.RecordAccess(e.page, false)
					plain.RecordAccess(e.page)
				case evHit:
					// The documented difference: a stale hit costs a tick and
					// nothing else.
					if brute.RecordAccess(e.page, true) {
						plain.table.tick()
						dropped++
					} else {
						plain.RecordAccess(e.page)
					}
				case evEvictOn, evEvictOff:
					brute.SetEvictable(e.page, e.kind == evEvictOn)
					plain.SetEvictable(e.page, e.kind == evEvictOn)
				case evRestore:
					brute.Restore(e.page)
					plain.Restore(e.page)
				case evictOp:
					v1, ok1 := plain.Evict()
					v2, ok2 := brute.Evict()
					if !ok1 || v1 != e.page || !ok2 || v2 != e.page {
						t.Fatalf("history step %d: replay evicted (%d,%v), brute force (%d,%v), the concurrent run chose %d",
							i, v1, ok1, v2, ok2, e.page)
					}
				}
			}
			if want := plain.PolicyStats(); got != want {
				t.Errorf("policy stats %+v, want the serial replay's %+v", got, want)
			}
			st := s.BatchStats()
			if st.Dropped != dropped {
				t.Errorf("Dropped = %d, the replay saw %d stale hits", st.Dropped, dropped)
			}
			if st.Drains == 0 || got.Evictions == 0 || got.Collapses == 0 || got.Purges == 0 {
				t.Errorf("storm did not exercise drains, evictions, collapses and purges: %+v %+v", st, got)
			}
			checkAgainstBrute(t, s.r.table, brute)
			for {
				want, wantOK := brute.Evict()
				v1, ok1 := plain.Evict()
				v2, ok2 := s.Evict()
				if v1 != want || ok1 != wantOK || v2 != want || ok2 != wantOK {
					t.Fatalf("final order: replay (%d,%v), concurrent (%d,%v), brute force (%d,%v)", v1, ok1, v2, ok2, want, wantOK)
				}
				if !wantOK {
					break
				}
			}
		})
	}
}

// victimRecorder is a PolicyTracer that reports the victim's page alone.
type victimRecorder func(policy.PageID)

func (f victimRecorder) TraceEvict(p policy.PageID, _, _ policy.Tick, _ bool) { f(p) }
