package sim

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/policy"
	"repro/internal/storage"
)

// This file keeps the simulated disk's pages in the page arena's chunks
// (storage.TakeChunk). Pages never escape the manager (Read and Write copy),
// so a chunk handed back at Close is unreachable from it.
//
// Page ids are dense: Allocate hands out 0, 1, 2, … and nothing frees a
// page, so page p lives in chunk p/ChunkPages at slot p%ChunkPages
// and the disk needs no page table. Nothing is cleared either: a page that
// was never written reads as zeros from its chunk's written flag, so the
// old bytes of a recycled chunk can never be read.

// errClosed reports an operation on a closed manager.
var errClosed = errors.New("sim: disk closed")

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

// chunk is one arena chunk and a written flag per page. A flag is read and
// set under its page's stripe latch; each is a whole byte, so pages of one
// chunk in different stripes share no variable.
type chunk struct {
	mem     []byte
	written [storage.ChunkPages]bool
}

// alloc reserves the next page id, taking a chunk when the id starts one.
func (a *arena) alloc() (policy.PageID, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return policy.InvalidPage, errClosed
	}
	id := a.next.Load()
	if id%storage.ChunkPages == 0 {
		mem, err := storage.TakeChunk()
		if err != nil {
			return policy.InvalidPage, err
		}
		t := append(*a.table.Load(), &chunk{mem: mem})
		a.table.Store(&t)
	}
	a.next.Store(id + 1)
	return policy.PageID(id), nil
}

// release hands a closed arena's chunks back and forgets its pages. The
// caller holds mu and guarantees no page of them is reachable any more.
func (a *arena) release() {
	for _, c := range *a.table.Swap(new([]*chunk)) {
		storage.ReleaseChunks([][]byte{c.mem})
	}
	a.next.Store(0)
}
