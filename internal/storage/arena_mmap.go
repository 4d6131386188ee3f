//go:build !race

package storage

import "syscall"

func newChunk() ([]byte, error) {
	return syscall.Mmap(-1, 0, ChunkBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}
