package main

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/workload"
)

// Op is one pre-generated operation: the customer id in the low 24 bits
// and, for an UPDATE, the non-zero fill byte in the high 8 (0 marks a GET).
type Op uint32

const opKeyMask = 1<<24 - 1

func makeOp(cust int, fill byte) Op { return Op(cust) | Op(fill)<<24 }

// Cust returns the customer id.
func (o Op) Cust() int64 { return int64(o & opKeyMask) }

// Fill returns the UPDATE fill byte, or 0 for a GET.
func (o Op) Fill() byte { return byte(o >> 24) }

// recordsPerPage is how many 2,000-byte customer records the heap file packs
// into one 4 KB page; LoadCustomers fills pages in id order, so customers
// 2p and 2p+1 share data page p (asserted at set-up against db.DataPages).
const recordsPerPage = 2

// Every stream draws *data pages* from its distribution and turns page p
// into customer recordsPerPage*p + client: the clients reference the same
// pages — the unit the pool and the paper reason about — but disjoint
// customers, so each client knows the last fill it wrote to every record it
// reads without synchronising with the other.
func custOf(page, client int) int { return recordsPerPage*page + client }

// clientRNG derives the client's generator from the run seed.
func clientRNG(seed uint64, client int) *stats.RNG {
	return stats.NewRNG(seed*0x9E3779B97F4A7C15 + uint64(client) + 1)
}

// updateFill cycles 1..250, never 0 (which would read as a GET).
func updateFill(i int) byte { return byte(1 + i%250) }

// pageSource yields data page indexes.
type pageSource func() int

// genOps materialises n operations: a page from next, then an UPDATE with
// probability updateShare (decided by the client's own generator so the
// page sequence is the same at any share).
func genOps(next pageSource, rng *stats.RNG, client int, updateShare float64, n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		cust := custOf(next(), client)
		var fill byte
		if updateShare > 0 && rng.Float64() < updateShare {
			fill = updateFill(i)
		}
		ops[i] = makeOp(cust, fill)
	}
	return ops
}

// hotReadStream reads uniformly over the first hotPages data pages.
func hotReadStream(seed uint64, client, hotPages, n int) []Op {
	rng := clientRNG(seed, client)
	return genOps(func() int { return rng.Intn(hotPages) }, rng, client, 0, n)
}

// twoPoolStream is the paper's §4.1 reference string over data pages:
// strictly alternating a hot pool (pages 0..hotPages-1) and a cold pool
// (the remaining pages), uniform within each.
func twoPoolStream(seed uint64, client, hotPages, pages int, updateShare float64, n int) []Op {
	if hotPages <= 0 || hotPages >= pages {
		panic(fmt.Sprintf("bench: two-pool needs 0 < hot (%d) < pages (%d)", hotPages, pages))
	}
	rng := clientRNG(seed, client)
	g := workload.NewTwoPool(hotPages, pages-hotPages, rng.Uint64())
	return genOps(func() int { return int(g.Next()) }, rng, client, updateShare, n)
}

// zipfStream is the paper's §4.2 self-similar 80-20 distribution over data
// pages, page 0 the hottest.
func zipfStream(seed uint64, client, pages int, updateShare float64, n int) []Op {
	rng := clientRNG(seed, client)
	g := workload.NewZipfian(pages, 0.8, 0.2, rng.Uint64())
	return genOps(func() int { return int(g.Next()) }, rng, client, updateShare, n)
}
