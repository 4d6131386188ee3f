// Indexscan runs the paper's Example 1.1 end to end through the real
// storage stack: customer records in a heap file, a clustered B-tree on
// CUST-ID, random lookups producing the alternating I1, R1, I2, R2, ...
// reference pattern — then compares how LRU-1 and LRU-2 buffer pools split
// their frames between index and data pages.
//
// The paper's observation: with ~enough frames for the index, LRU keeps
// "50 B-tree leaf pages and 50 record pages" (useless data pages crowd out
// precious leaf pages), while LRU-2 learns that every leaf page is ~100x
// hotter than any data page and keeps the whole index resident.
//
//	go run ./examples/indexscan
package main

import (
	"fmt"
	"log"

	"repro/internal/db"
	"repro/internal/sim"
)

func main() {
	// Scaled-down Example 1.1: 2000 customers → 1000 data pages and an
	// 11-page index (10 packed leaves and the root); 16 frames approximate
	// the paper's "101 buffers for a 100-leaf index" proportions.
	const (
		customers = 2000
		lookups   = 40000
		frames    = 16
	)
	fmt.Printf("Example 1.1: %d customers, %d random lookups, %d buffer frames\n\n",
		customers, lookups, frames)
	fmt.Printf("%-8s  %9s  %12s  %11s  %10s  %12s\n",
		"policy", "hit ratio", "index pages", "data pages", "disk reads", "I/O time (s)")
	for _, k := range []int{1, 2, 3} {
		res, err := sim.RunExample11(db.Config{Frames: frames, K: k}, customers, lookups, 42)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("LRU-%d     %9.3f  %12d  %11d  %10d  %12.1f\n",
			k, res.HitRatio, res.ResidentIndex, res.ResidentData,
			res.DiskReads, float64(res.ServiceMicros)/1e6)
	}
	fmt.Println("\nLRU-2/3 keep the index resident; LRU-1 wastes frames on data pages.")
}
