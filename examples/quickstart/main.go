// Quickstart: LRU-K as this repository serves it — the replacement policy
// of a database buffer pool. A customer table (heap file plus B-tree index
// on CUST-ID) pages through a pool of 64 frames run by LRU-2, over a
// simulated disk.
//
// Each lookup appends the record into one reused buffer and is checked
// byte for byte; any wrong byte exits non-zero. The program then prints
// the pool's hit ratio and the replacer's decision counts (PolicyStats).
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"log"

	"repro/internal/db"
	"repro/internal/stats"
)

func main() {
	const (
		frames    = 64
		customers = 2000
		lookups   = 20000
	)
	d, err := db.Open(db.Config{Frames: frames, K: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()
	if err := d.LoadCustomers(customers); err != nil {
		log.Fatal(err)
	}

	// A loaded record is its CUST-ID, 8 bytes little-endian, then zero
	// filler.
	ctx := context.Background()
	rng := stats.NewRNG(1)
	var rec []byte
	for i := 0; i < lookups; i++ {
		id := int64(rng.Intn(customers))
		if rec, err = d.LookupAppendCtx(ctx, rec[:0], id); err != nil {
			log.Fatal(err)
		}
		if len(rec) < 8 || int64(binary.LittleEndian.Uint64(rec)) != id {
			log.Fatalf("lookup %d: record does not begin with its id", id)
		}
		for j, b := range rec[8:] {
			if b != 0 {
				log.Fatalf("lookup %d: filler byte %d is %#x, want 0", id, j, b)
			}
		}
	}

	snap := d.StatsSnapshot()
	fmt.Printf("%d lookups over %d customers, %d frames, LRU-2\n", lookups, customers, frames)
	fmt.Printf("pool hit ratio since Open, load included: %.3f\n", snap.PoolHitRatio)
	fmt.Printf("replacer: %+v\n", snap.Policy)
}
