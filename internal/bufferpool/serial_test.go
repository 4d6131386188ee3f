package bufferpool

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/policy"
	"repro/internal/storage"
)

// Serial is the original single-latch buffer pool: every fetch, pin, unpin
// and disk transfer runs under one mutex. It is kept as the reference
// implementation — its behaviour on a serialisable call history is the
// specification the concurrent Pool is differentially tested against — and
// as the baseline BenchmarkPoolParallel measures latch-partitioning
// against. New code should use Pool.
type Serial struct {
	mu        sync.Mutex
	backend   storage.Backend
	replacer  SerialReplacer
	frames    []serialFrame
	pageTable map[policy.PageID]int
	free      []int
	stats     Stats
}

// SerialReplacer is the single-threaded policy contract Serial drives, all
// of it under Serial's own mutex. The plain core.Replacer implements it.
type SerialReplacer interface {
	// RecordAccess notes a reference to a (newly or already) resident page;
	// admission makes the page a victim candidate.
	RecordAccess(p policy.PageID)
	// SetEvictable carries Serial's pin protocol: false after every
	// reference (the caller now holds a pin), true when the pin count
	// returns to zero.
	SetEvictable(p policy.PageID, evictable bool)
	// Restore reinstates a victim whose write-back failed as a candidate,
	// without counting as a reference.
	Restore(p policy.PageID)
	Evict() (policy.PageID, bool)
}

type serialFrame struct {
	data     []byte
	page     policy.PageID
	pinCount int
	dirty    bool
	inUse    bool
}

// NewSerial returns a single-latch pool of numFrames frames over backend b
// using the given replacer, which it serialises itself.
func NewSerial(b storage.Backend, numFrames int, r SerialReplacer) *Serial {
	if b == nil {
		panic("bufferpool: nil storage backend")
	}
	if numFrames <= 0 {
		panic(fmt.Sprintf("bufferpool: frame count must be positive, got %d", numFrames))
	}
	if r == nil {
		panic("bufferpool: nil replacer")
	}
	p := &Serial{
		backend:   b,
		replacer:  r,
		frames:    make([]serialFrame, numFrames),
		pageTable: make(map[policy.PageID]int, numFrames),
		free:      make([]int, 0, numFrames),
	}
	for i := range p.frames {
		p.frames[i].data = make([]byte, storage.PageSize)
		p.free = append(p.free, i)
	}
	return p
}

// SerialPage is a pinned page handle on a Serial pool. The data is valid
// until Unpin; using a handle after Unpin is a caller bug.
type SerialPage struct {
	pool  *Serial
	id    policy.PageID
	slot  int
	valid bool
}

// ID returns the page id.
func (pg *SerialPage) ID() policy.PageID { return pg.id }

// Data returns the page's frame bytes for reading and writing. Callers
// that modify the data must pass dirty=true to Unpin.
func (pg *SerialPage) Data() []byte {
	if !pg.valid {
		panic("bufferpool: use of page handle after Unpin")
	}
	return pg.pool.frames[pg.slot].data
}

// Unpin releases the handle, marking the page dirty if it was modified.
// The handle becomes invalid.
func (pg *SerialPage) Unpin(dirty bool) {
	if !pg.valid {
		panic("bufferpool: double Unpin")
	}
	pg.valid = false
	pg.pool.unpin(pg.id, dirty)
}

// NewPage allocates a fresh disk page, pins it in a frame and returns the
// handle.
func (p *Serial) NewPage() (*SerialPage, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	slot, err := p.obtainFrame()
	if err != nil {
		return nil, err
	}
	id, err := p.backend.Allocate()
	if err != nil {
		p.free = append(p.free, slot)
		return nil, fmt.Errorf("bufferpool: allocating page: %w", err)
	}
	f := &p.frames[slot]
	for i := range f.data {
		f.data[i] = 0
	}
	p.install(slot, id)
	p.stats.Misses++ // a new page is by definition not buffer-resident
	return &SerialPage{pool: p, id: id, slot: slot, valid: true}, nil
}

// Fetch pins page id, reading it from disk on a miss, and returns the
// handle.
func (p *Serial) Fetch(id policy.PageID) (*SerialPage, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if slot, ok := p.pageTable[id]; ok {
		f := &p.frames[slot]
		f.pinCount++
		p.replacer.RecordAccess(id)
		p.replacer.SetEvictable(id, false)
		p.stats.Hits++
		return &SerialPage{pool: p, id: id, slot: slot, valid: true}, nil
	}
	slot, err := p.obtainFrame()
	if err != nil {
		return nil, err
	}
	f := &p.frames[slot]
	if err := p.backend.Read(context.Background(), id, f.data); err != nil {
		p.free = append(p.free, slot)
		p.stats.Misses++ // the page was not resident, error or not
		p.stats.ReadErrors++
		return nil, fmt.Errorf("fetching page %d: %w", id, err)
	}
	p.install(slot, id)
	p.stats.Misses++
	return &SerialPage{pool: p, id: id, slot: slot, valid: true}, nil
}

// install binds page id to slot with pin count 1 and records the access.
// Callers hold p.mu and have prepared the frame data.
func (p *Serial) install(slot int, id policy.PageID) {
	f := &p.frames[slot]
	f.page = id
	f.pinCount = 1
	f.dirty = false
	f.inUse = true
	p.pageTable[id] = slot
	p.replacer.RecordAccess(id)
	p.replacer.SetEvictable(id, false)
}

// obtainFrame returns a usable frame slot, evicting a victim (with
// write-back if dirty) when no frame is free. Callers hold p.mu.
func (p *Serial) obtainFrame() (int, error) {
	if n := len(p.free); n > 0 {
		slot := p.free[n-1]
		p.free = p.free[:n-1]
		return slot, nil
	}
	victim, ok := p.replacer.Evict()
	if !ok {
		return 0, ErrNoFreeFrame
	}
	slot, ok := p.pageTable[victim]
	if !ok {
		return 0, fmt.Errorf("bufferpool: replacer chose non-resident victim %d", victim)
	}
	f := &p.frames[slot]
	if f.pinCount != 0 {
		return 0, fmt.Errorf("bufferpool: replacer chose pinned victim %d", victim)
	}
	if f.dirty {
		if err := p.backend.Write(context.Background(), victim, f.data); err != nil {
			// Reinstate the victim in the replacer: Evict already removed
			// it, and without restoration the page could never be chosen
			// again (a permanent leak of both the frame and the replacer
			// entry). Serial keeps the single-attempt error policy; the
			// concurrent Pool's retry/quarantine protocol is the hardened
			// path.
			p.replacer.Restore(victim)
			p.stats.WriteErrors++
			return 0, fmt.Errorf("writing back victim %d: %w", victim, err)
		}
		p.stats.WriteBacks++
	}
	delete(p.pageTable, victim)
	f.inUse = false
	p.stats.Evictions++
	return slot, nil
}

func (p *Serial) unpin(id policy.PageID, dirty bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	slot, ok := p.pageTable[id]
	if !ok {
		panic(fmt.Sprintf("bufferpool: unpin of non-resident page %d", id))
	}
	f := &p.frames[slot]
	if f.pinCount <= 0 {
		panic(fmt.Sprintf("bufferpool: unpin of unpinned page %d", id))
	}
	f.pinCount--
	if dirty {
		f.dirty = true
	}
	if f.pinCount == 0 {
		p.replacer.SetEvictable(id, true)
	}
}

// FlushPage writes page id back to disk if dirty. The page stays resident.
func (p *Serial) FlushPage(id policy.PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	slot, ok := p.pageTable[id]
	if !ok {
		return fmt.Errorf("flush page %d: %w", id, errNotResident)
	}
	f := &p.frames[slot]
	if !f.dirty {
		return nil
	}
	if err := p.backend.Write(context.Background(), id, f.data); err != nil {
		p.stats.WriteErrors++
		return fmt.Errorf("flushing page %d: %w", id, err)
	}
	f.dirty = false
	p.stats.WriteBacks++
	return nil
}

// FlushAll writes every dirty resident page back to storage, then runs the
// backend's durability barrier (a checkpoint, on the durable file backend).
func (p *Serial) FlushAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.frames {
		f := &p.frames[i]
		if !f.inUse || !f.dirty {
			continue
		}
		if err := p.backend.Write(context.Background(), f.page, f.data); err != nil {
			p.stats.WriteErrors++
			return fmt.Errorf("flushing page %d: %w", f.page, err)
		}
		f.dirty = false
		p.stats.WriteBacks++
	}
	return p.backend.Flush(context.Background())
}

// Stats returns a snapshot of pool counters.
func (p *Serial) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// NumFrames returns the pool capacity in frames.
func (p *Serial) NumFrames() int { return len(p.frames) }

// Resident reports whether page id currently occupies a frame.
func (p *Serial) Resident(id policy.PageID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.pageTable[id]
	return ok
}
