package sim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
)

// This file holds the simulated disk's page images outside the Go heap, in
// anonymous mmap'd chunks. On the heap, the disk counted as live data, and
// at GOGC = 100 the collector let the heap grow to twice the live size
// before it ran: the disk cost about twice its size in RSS. Off the heap it
// costs its size. Pages never escape the manager (Read and Write copy), so
// a chunk handed to another manager is never reachable from the old one.

const (
	// chunkBytes is the size of one mapping.
	chunkBytes = 1 << 20
	// pagesPerChunk is the number of pages carved from one chunk.
	pagesPerChunk = chunkBytes / PageSize
)

// errClosed reports an operation on a closed manager.
var errClosed = errors.New("sim: disk closed")

// spare holds the chunks of closed managers for the next manager to carve.
// Chunks are never unmapped: re-faulting them on every set-up cost more
// than keeping them.
var spare struct {
	mu     sync.Mutex
	chunks [][]byte
}

// mapped counts the chunks this process has mapped.
var mapped atomic.Int64

// arena is one manager's page memory: the chunks it holds and how many
// pages of the newest chunk are carved. Pages are never freed, so carving
// is the only way to get one.
type arena struct {
	mu     sync.Mutex
	closed bool
	chunks [][]byte
	carved int
}

// get carves a zeroed page.
func (a *arena) get() (*[PageSize]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil, errClosed
	}
	if len(a.chunks) == 0 || a.carved == pagesPerChunk {
		c, err := takeChunk()
		if err != nil {
			return nil, err
		}
		a.chunks, a.carved = append(a.chunks, c), 0
	}
	pg := (*[PageSize]byte)(a.chunks[len(a.chunks)-1][a.carved*PageSize:])
	a.carved++
	// A page of a spare chunk holds old contents.
	clear(pg[:])
	return pg, nil
}

// shut makes every later get fail. It reports false if the arena was
// already shut.
func (a *arena) shut() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return false
	}
	a.closed = true
	return true
}

// release hands a shut arena's chunks to spare. The caller guarantees no
// page of them is reachable any more.
func (a *arena) release() {
	a.mu.Lock()
	chunks := a.chunks
	a.chunks = nil
	a.mu.Unlock()
	spare.mu.Lock()
	spare.chunks = append(spare.chunks, chunks...)
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
