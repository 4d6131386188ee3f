// Package core implements the LRU-K page replacement algorithm of
// O'Neil, O'Neil & Weikum (SIGMOD 1993) — the primary contribution of the
// paper this repository reproduces.
//
// One engine, the histTable in this file, sits behind one face: Replacer,
// the victim selector the buffer pool in internal/bufferpool runs.
// SyncReplacer is a Replacer behind a mutex and an event ring, and LRUK,
// the fixed-capacity policy.Cache the trace-driven simulator (Section 4)
// runs, is a Replacer plus a frame count.
//
// The bookkeeping follows Figure 2.1 of the paper: per-page HIST blocks
// with the times of the K most recent uncorrelated references, a LAST
// timestamp for correlated-reference detection (§2.1.1), retained history
// for non-resident pages (§2.1.2), and a victim index ordered by Backward
// K-distance (§2.1.3): an LRU list for the pages at infinite distance and a
// min-heap for the rest. The table is the only code that reads or writes
// that index: the Replacer says what happened to a page (referenced,
// admitted, made a candidate, retired) and asks for a victim.
package core

import (
	"container/heap"

	"repro/internal/policy"
)

// hist is the history control block HIST(p) plus LAST(p) of Figure 2.1.
type hist struct {
	// times holds the K most recent uncorrelated reference times:
	// times[0] is HIST(p,1) (most recent), times[K-1] is HIST(p,K).
	// A zero entry means "no such reference yet" (backward distance ∞),
	// matching the pseudo-code's initialisation HIST(p,i) := 0.
	times []policy.Tick
	// last is LAST(p): the most recent reference of any kind, correlated
	// or not.
	last policy.Tick
	page policy.PageID
	// resident reports whether the page currently occupies a buffer frame.
	resident bool
	// candidate reports whether the page may be chosen as a victim; it
	// implies resident. The victim index holds exactly the candidates.
	candidate bool
	// pos is the block's slot in the table's heap while it is filed there,
	// and -1 otherwise.
	pos int32
	// prev and next link the block into the table's ∞ list while it is
	// filed there; both are nil otherwise.
	prev, next *hist
}

// kth returns HIST(p,K), the time of the K-th most recent uncorrelated
// reference; zero encodes an infinite Backward K-distance.
func (h *hist) kth() policy.Tick { return h.times[len(h.times)-1] }

// before reports whether block a is evicted before block b: the victim
// index's order is the key (HIST(p,K), HIST(p,1), page) ascending. The
// smallest HIST(p,K) is the maximal Backward K-distance (Definition 2.2),
// zero (∞ distance) sorts first, and HIST(p,1) implements the subsidiary
// LRU rule among pages tied at infinite distance.
func before(a, b *hist) bool {
	if ak, bk := a.kth(), b.kth(); ak != bk {
		return ak < bk
	}
	if a.times[0] != b.times[0] {
		return a.times[0] < b.times[0]
	}
	return a.page < b.page
}

// victimHeap is the min-heap, in before order, of the candidates at finite
// distance, for container/heap. Each block records its slot in pos, so a
// key change is one heap.Fix.
type victimHeap []*hist

func (v victimHeap) Len() int           { return len(v) }
func (v victimHeap) Less(i, j int) bool { return before(v[i], v[j]) }
func (v victimHeap) Swap(i, j int) {
	v[i], v[j] = v[j], v[i]
	v[i].pos, v[j].pos = int32(i), int32(j)
}

func (v *victimHeap) Push(x any) {
	h := x.(*hist)
	h.pos = int32(len(*v))
	*v = append(*v, h)
}

func (v *victimHeap) Pop() any {
	old := *v
	h := old[len(old)-1]
	old[len(old)-1] = nil
	h.pos = -1
	*v = old[:len(old)-1]
	return h
}

// retired records a page that left residency at a given LAST time; the
// retention queue purges history blocks lazily once their age exceeds the
// Retained Information Period.
type retired struct {
	page policy.PageID
	last policy.Tick
}

// histTable is the shared engine: history blocks for resident and retained
// pages, the victim index over the candidates, and the retention queue.
// Each Replacer owns one.
type histTable struct {
	k     int
	crp   policy.Tick // Correlated Reference Period (§2.1.1); 0 disables
	rip   policy.Tick // Retained Information Period (§2.1.2); 0 retains forever
	clock policy.Tick

	pages map[policy.PageID]*hist
	// lru and heap order the candidates by Backward K-distance; nothing
	// outside this file touches them. lru is the sentinel of a circular list
	// of the candidates at infinite distance (all of them when K = 1): every
	// key change in that class sets HIST(p,1) := now, so Definition 2.2's
	// subsidiary LRU order is a list, first victim at lru.next. heap holds
	// the finite keys. A mutation that moves a block's key or flips its
	// candidacy re-files the block at once.
	lru  hist
	heap victimHeap
	// candidates counts blocks with candidate set — the size of the list and
	// the heap together.
	candidates int
	// retire is the lazily-validated retention queue, a FIFO in the order
	// pages left residency — not sorted by LAST: a page retired later may
	// carry an older LAST (a block evicted long after its last reference).
	// purge stops at the first entry still inside the Retained Information
	// Period, so a block is retained for at least the RIP, and longer while
	// a younger entry is ahead of it. retireHead indexes the logical front;
	// popped slack is compacted away (see retirePop) so a retirement burst
	// cannot pin its peak-sized backing array forever, as popping with
	// retire = retire[1:] used to.
	retire     []retired
	retireHead int
	// free holds up to freeMax purged blocks for admit to reuse: with a RIP
	// live, nearly every cold miss purges one block and admits another.
	free []*hist

	// collapses and purges count §2.1.1 collapses and §2.1.2 purges; plain
	// uint64s because the table is externally serialised.
	collapses uint64
	purges    uint64
}

func newHistTable(k int, crp, rip policy.Tick) *histTable {
	t := &histTable{
		k:     k,
		crp:   crp,
		rip:   rip,
		pages: make(map[policy.PageID]*hist),
	}
	t.lru.prev, t.lru.next = &t.lru, &t.lru
	return t
}

// tick advances the logical clock by one reference and runs the retention
// purge. It returns the new time.
func (t *histTable) tick() policy.Tick {
	t.clock++
	t.purge()
	return t.clock
}

// resident returns p's history block if p currently occupies a frame.
func (t *histTable) resident(p policy.PageID) (*hist, bool) {
	h, ok := t.pages[p]
	return h, ok && h.resident
}

// refile brings h's index entry in line with the block after its candidacy
// or key moved: present exactly if the page is a candidate, in the ∞ list
// or the heap as the key's class says. Every change is re-filed at once, so
// every other entry already stands under its block's current key.
func (t *histTable) refile(h *hist) {
	if h.prev != nil {
		h.prev.next, h.next.prev = h.next, h.prev
		h.prev, h.next = nil, nil
	} else if h.pos >= 0 {
		if h.candidate && !t.listed(h) {
			heap.Fix(&t.heap, int(h.pos))
			return
		}
		heap.Remove(&t.heap, int(h.pos))
	}
	if !h.candidate {
		return
	}
	if t.listed(h) {
		t.lruInsert(h)
	} else {
		heap.Push(&t.heap, h)
	}
}

// listed reports whether candidate h belongs in the ∞ list.
func (t *histTable) listed(h *hist) bool { return h.kth() == 0 || t.k == 1 }

// lruInsert links the filed block h into the ∞ list at its (HIST(p,1),
// page) position. The walk steps inward from both ends at once: a key moved
// to "now" stops at the back in one step, a restored victim near the front,
// and nothing walks more than half the list. The invariant: every entry
// after back sorts above h, every entry before front below it.
func (t *histTable) lruInsert(h *hist) {
	back, front := t.lru.prev, t.lru.next
	for back != &t.lru && before(h, back) {
		if before(h, front) {
			back = front.prev
			break
		}
		back, front = back.prev, front.next
	}
	h.prev, h.next = back, back.next
	back.next.prev = h
	back.next = h
}

// touch processes a reference at time now to the resident page of block h,
// per the top branch of Figure 2.1.
func (t *histTable) touch(h *hist, now policy.Tick) {
	if t.crp > 0 && now-h.last <= t.crp {
		// A correlated reference: only LAST moves (§2.1.1).
		h.last = now
		t.collapses++
		return
	}
	// A new, uncorrelated reference: close the correlated period by
	// crediting its span to the older history entries, collapsing the burst
	// to a zero-width interval, exactly as Figure 2.1 does.
	span := h.last - h.times[0]
	for i := t.k - 1; i >= 1; i-- {
		if h.times[i-1] != 0 {
			h.times[i] = h.times[i-1] + span
		}
	}
	h.times[0] = now
	h.last = now
	if h.candidate {
		t.refile(h)
	}
}

// admit installs page p as a resident victim candidate at time now,
// creating or shifting its history control block per the bottom branch of
// Figure 2.1, and returns its block.
func (t *histTable) admit(p policy.PageID, now policy.Tick) *hist {
	h, ok := t.pages[p]
	if !ok {
		// "allocate HIST(p); for i := 2 to K do HIST(p,i) := 0"
		if n := len(t.free); n > 0 {
			h, t.free = t.free[n-1], t.free[:n-1]
			clear(h.times)
			*h = hist{times: h.times, page: p, pos: -1}
		} else {
			h = &hist{times: make([]policy.Tick, t.k), page: p, pos: -1}
		}
		t.pages[p] = h
	} else {
		// History survives from a previous residency (§2.1.2): shift it so
		// the new reference becomes HIST(p,1).
		for i := t.k - 1; i >= 1; i-- {
			h.times[i] = h.times[i-1]
		}
	}
	h.times[0] = now
	h.last = now
	h.resident = true
	t.setCandidate(h, true)
	return h
}

// setCandidate marks whether the resident page of block h may be chosen as
// a victim.
func (t *histTable) setCandidate(h *hist, candidate bool) {
	if h.candidate == candidate {
		return
	}
	h.candidate = candidate
	if candidate {
		t.candidates++
	} else {
		t.candidates--
	}
	t.refile(h)
}

// retireResident removes the page of block h from residency (and from
// candidacy), queueing its history block for the retention demon.
func (t *histTable) retireResident(h *hist) {
	t.setCandidate(h, false)
	h.resident = false
	if t.rip > 0 {
		t.retire = append(t.retire, retired{page: h.page, last: h.last})
	}
}

// retireLen returns the number of queued retirement entries.
func (t *histTable) retireLen() int { return len(t.retire) - t.retireHead }

// retireCompactMin is the popped-slack threshold below which retirePop
// does not bother compacting.
const retireCompactMin = 32

// retirePop removes and returns the front of the retention queue. The
// vacated slot is zeroed, and once popped slack dominates the backing
// array the live tail is copied down — to a fresh, smaller array when the
// queue is mostly slack — so the queue's memory stays proportional to its
// live length instead of its historical peak.
func (t *histTable) retirePop() retired {
	head := t.retire[t.retireHead]
	t.retire[t.retireHead] = retired{}
	t.retireHead++
	if t.retireHead >= retireCompactMin && t.retireHead >= len(t.retire)/2 {
		live := len(t.retire) - t.retireHead
		if cap(t.retire) >= 4*live+retireCompactMin {
			fresh := make([]retired, live)
			copy(fresh, t.retire[t.retireHead:])
			t.retire = fresh
		} else {
			n := copy(t.retire, t.retire[t.retireHead:])
			t.retire = t.retire[:n]
		}
		t.retireHead = 0
	}
	return head
}

// selectVictim returns the candidate with the maximal Backward K-distance
// whose correlated reference period has expired ("t - LAST(q) > Correlated
// Reference Period" in Figure 2.1). If every candidate is still inside its
// correlated period, the overall maximum is returned anyway — the paper
// leaves this case open, and starving admission would deadlock a real
// buffer pool. ok is false when there is no candidate. The ∞ list comes
// before the whole heap in that order, so both searches look at the list
// first.
func (t *histTable) selectVictim(now policy.Tick) (victim policy.PageID, ok bool) {
	if t.crp > 0 {
		for h := t.lru.next; h != &t.lru; h = h.next {
			if now-h.last > t.crp {
				return h.page, true
			}
		}
		if i := t.eligibleMin(0, now); i >= 0 {
			return t.heap[i].page, true
		}
	}
	if h := t.lru.next; h != &t.lru {
		return h.page, true
	}
	if len(t.heap) == 0 {
		return policy.InvalidPage, false
	}
	return t.heap[0].page, true
}

// eligibleMin returns the slot of the first entry, in before order, at or
// below heap slot i whose correlated period has expired, or -1. Everything
// below an eligible entry sorts after it, so the walk descends only from
// ineligible entries. Each tick references one page, so at most CRP+1
// entries are inside their period and the walk visits at most 2·CRP+3
// slots. (A Restore that re-creates a purged block reuses the current
// tick, so each such block can add one entry to that count.)
func (t *histTable) eligibleMin(i int, now policy.Tick) int {
	if i >= len(t.heap) {
		return -1
	}
	if now-t.heap[i].last > t.crp {
		return i
	}
	a, b := t.eligibleMin(2*i+1, now), t.eligibleMin(2*i+2, now)
	if a < 0 || b >= 0 && t.heap.Less(b, a) {
		return b
	}
	return a
}

// purge is the paper's "asynchronous demon process" (§2.1.3) run inline:
// it drops history control blocks of non-resident pages whose most recent
// reference is more than the Retained Information Period in the past.
// Queue entries are validated lazily, so the amortised cost is O(1) per
// reference.
func (t *histTable) purge() {
	if t.rip == 0 {
		return
	}
	for t.retireLen() > 0 {
		head := t.retire[t.retireHead]
		if t.clock-head.last <= t.rip {
			return
		}
		t.retirePop()
		h, ok := t.pages[head.page]
		if !ok || h.resident || h.last != head.last {
			// The page was readmitted (and possibly re-retired) since this
			// entry was queued; a fresher entry governs it.
			continue
		}
		t.dropHistory(h)
	}
}

const freeMax = 1024

// dropHistory deletes the (non-resident) history control block h, counts
// the purge, and recycles the block.
func (t *histTable) dropHistory(h *hist) {
	delete(t.pages, h.page)
	t.purges++
	if len(t.free) < freeMax {
		t.free = append(t.free, h)
	}
}

// historyLen returns the number of history control blocks held, resident
// or retained. Exposed for tests of the retention demon.
func (t *histTable) historyLen() int { return len(t.pages) }

// dropOldestRetained purges the oldest retained (non-resident) history
// block regardless of the Retained Information Period, reporting whether
// one was dropped. The budgeted policy uses it to convert history memory
// back into buffer frames when the history share outgrows its budget.
func (t *histTable) dropOldestRetained() bool {
	for t.retireLen() > 0 {
		head := t.retirePop()
		h, ok := t.pages[head.page]
		if !ok || h.resident || h.last != head.last {
			continue // stale queue entry; a fresher one governs the page
		}
		t.dropHistory(h)
		return true
	}
	return false
}

// backwardKDistance returns b_t(p,K) per Definition 2.1, with ok=false
// encoding an infinite distance (no K-th reference on record).
func (t *histTable) backwardKDistance(p policy.PageID) (policy.Tick, bool) {
	h, found := t.pages[p]
	if !found || h.kth() == 0 {
		return 0, false
	}
	return t.clock - h.kth(), true
}
