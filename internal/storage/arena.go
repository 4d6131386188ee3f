package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// This file is the page arena that the simulated disk's pages and the pool's
// frames are cut from: 1 MB chunks outside the Go heap (but in race builds),
// where pages cost their size in RSS, not about twice it at GOGC = 100
// (DESIGN.md §8). A user hands chunks back once nothing can reach them; the
// next takes them uncleared and must never expose the old bytes. Nothing is
// unmapped.

// ChunkBytes is the size of one chunk, and ChunkPages the pages it holds.
const (
	ChunkBytes = 1 << 20
	ChunkPages = ChunkBytes / PageSize
)

var (
	spareMu sync.Mutex
	spare   [][]byte     // chunks handed back, taken last in, first out
	mapped  atomic.Int64 // chunks obtained from newChunk
)

// TakeChunk returns a spare chunk, or a new one.
func TakeChunk() ([]byte, error) {
	spareMu.Lock()
	if n := len(spare); n > 0 {
		c := spare[n-1]
		spare = spare[:n-1]
		spareMu.Unlock()
		return c, nil
	}
	spareMu.Unlock()
	c, err := newChunk()
	if err != nil {
		return nil, fmt.Errorf("storage: map %d-byte page chunk: %w", ChunkBytes, err)
	}
	mapped.Add(1)
	return c, nil
}

// ReleaseChunks hands chunks back. Nothing may read or write them after.
func ReleaseChunks(chunks [][]byte) {
	spareMu.Lock()
	spare = append(spare, chunks...)
	spareMu.Unlock()
}

// MappedChunks returns how many chunks the process has obtained.
func MappedChunks() int64 { return mapped.Load() }
