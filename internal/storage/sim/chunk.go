package sim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/policy"
)

// This file holds the simulated disk's page images outside the Go heap, in
// anonymous mmap'd chunks. On the heap, the disk counted as live data, and
// at GOGC = 100 the collector let the heap grow to twice the live size
// before it ran: the disk cost about twice its size in RSS. Off the heap it
// costs its size. Pages never escape the manager (Read and Write copy), so
// a chunk handed to another manager is never reachable from the old one.
//
// Page ids are dense: Allocate hands out 0, 1, 2, … and nothing frees a
// page, so page p lives in chunk p/pagesPerChunk at slot p%pagesPerChunk
// and the disk needs no page table. Nothing is cleared either: a page that
// was never written reads as zeros from its chunk's written flag, so the
// old bytes of a recycled chunk can never be read.

const (
	// chunkBytes is the size of one mapping.
	chunkBytes = 1 << 20
	// pagesPerChunk is the number of pages one chunk holds.
	pagesPerChunk = chunkBytes / PageSize
)

// errClosed reports an operation on a closed manager.
var errClosed = errors.New("sim: disk closed")

// spare holds the chunks of closed managers for the next manager to take.
// Chunks are never unmapped: re-faulting them on every set-up cost more
// than keeping them.
var spare struct {
	mu     sync.Mutex
	chunks [][]byte
}

// mapped counts the chunks this process has mapped.
var mapped atomic.Int64

// arena is one manager's page memory: how many pages are allocated and the
// chunk table that holds them.
type arena struct {
	mu     sync.Mutex // serialises alloc and Close
	closed bool
	// next is the number of pages allocated. alloc stores it after
	// publishing the chunk that holds page next-1, so a reader that loads
	// next > p finds p's chunk in the table it loads afterwards, without mu.
	next  atomic.Int64
	table atomic.Pointer[[]*chunk]
}

// chunk is one mapping and a written flag per page. A flag is read and set
// under its page's stripe latch; each is a whole byte, so pages of one
// chunk in different stripes share no variable.
type chunk struct {
	mem     []byte
	written [pagesPerChunk]bool
}

// alloc reserves the next page id, taking a chunk when the id starts one.
func (a *arena) alloc() (policy.PageID, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return policy.InvalidPage, errClosed
	}
	id := a.next.Load()
	if id%pagesPerChunk == 0 {
		mem, err := takeChunk()
		if err != nil {
			return policy.InvalidPage, err
		}
		t := append(*a.table.Load(), &chunk{mem: mem})
		a.table.Store(&t)
	}
	a.next.Store(id + 1)
	return policy.PageID(id), nil
}

// release hands a closed arena's chunks to spare and forgets its pages.
// The caller holds mu and guarantees no page of them is reachable any more.
func (a *arena) release() {
	t := a.table.Swap(new([]*chunk))
	a.next.Store(0)
	spare.mu.Lock()
	for _, c := range *t {
		spare.chunks = append(spare.chunks, c.mem)
	}
	spare.mu.Unlock()
}

// takeChunk returns a spare chunk, or maps a new one.
func takeChunk() ([]byte, error) {
	spare.mu.Lock()
	if n := len(spare.chunks); n > 0 {
		c := spare.chunks[n-1]
		spare.chunks = spare.chunks[:n-1]
		spare.mu.Unlock()
		return c, nil
	}
	spare.mu.Unlock()
	c, err := syscall.Mmap(-1, 0, chunkBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("sim: map %d-byte page chunk: %w", chunkBytes, err)
	}
	mapped.Add(1)
	return c, nil
}
