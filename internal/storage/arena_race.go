//go:build race

package storage

// newChunk keeps page memory on the heap: the race detector checks no other.
func newChunk() ([]byte, error) { return make([]byte, ChunkBytes), nil }
