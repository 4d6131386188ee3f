// Package cluster turns N lrukd page-service nodes into one logical
// service: a consistent-hash ring assigns every customer key to exactly
// one node, a membership view (internal/server/wire.View) names the nodes
// and is totally ordered by epoch, a cluster-aware client routes and
// retries against that ring, and a rebalance coordinator moves key state
// between nodes when the membership changes (DESIGN.md §16).
//
// The ring is the contract everything else hangs off: any two
// participants holding views with the same node-id set compute the same
// owner for every key, because placement is a pure function of node ids
// and a fixed, documented seed — no RNG, no per-process state. Epochs,
// addresses, and node order never influence placement, so a node can
// change address (or a view be re-stamped) without moving a single key.
package cluster

import (
	"sort"

	"repro/internal/server/wire"
)

const (
	// VNodes is the number of ring points each node projects. More points
	// smooth the key shares (the per-node share error shrinks roughly with
	// 1/sqrt(VNodes)); 128 keeps a 3-node cluster's max/min request-share
	// ratio comfortably inside lrukload's default -max-skew gates while
	// ring construction stays trivially cheap.
	VNodes = 128

	// placementSeed decorrelates the ring's hash space from anything else
	// that might hash the same ids or keys. It is a protocol constant:
	// changing it moves every key on every cluster, so it changes only
	// with a deliberate, documented migration.
	placementSeed = 0x6c72756b5f726e67 // "lruk_rng"
)

// Ring is an immutable consistent-hash ring over a view's node set.
type Ring struct {
	hashes []uint64 // sorted ring points
	owners []string // owners[i] owns the arc ending at hashes[i]
}

// NewRing builds the ring for a view. Node order in the view is
// irrelevant; only the set of ids matters.
func NewRing(v wire.View) *Ring {
	type point struct {
		h  uint64
		id string
	}
	pts := make([]point, 0, len(v.Nodes)*VNodes)
	for _, n := range v.Nodes {
		base := fnv1a(n.ID) ^ placementSeed
		for i := 0; i < VNodes; i++ {
			// Golden-ratio stepping plus a strong finalizer spreads one
			// node's points uniformly and independently of other nodes'.
			pts = append(pts, point{h: mix64(base + uint64(i)*0x9E3779B97F4A7C15), id: n.ID})
		}
	}
	// Deterministic total order: by hash, ties (astronomically rare) by id,
	// so every participant sorts identically.
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].h != pts[j].h {
			return pts[i].h < pts[j].h
		}
		return pts[i].id < pts[j].id
	})
	r := &Ring{
		hashes: make([]uint64, len(pts)),
		owners: make([]string, len(pts)),
	}
	for i, p := range pts {
		r.hashes[i] = p.h
		r.owners[i] = p.id
	}
	return r
}

// Owner returns the node id owning the key, or "" on an empty ring.
func (r *Ring) Owner(key int64) string {
	if len(r.hashes) == 0 {
		return ""
	}
	h := keyHash(key)
	// First ring point at or after the key's hash; wrap past the top.
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return r.owners[i]
}

// keyHash is the position of a customer key on the ring.
func keyHash(key int64) uint64 {
	return mix64(uint64(key) ^ placementSeed)
}

// mix64 is the splitmix64 finalizer: a fast, well-avalanched 64-bit
// mixer, which is what makes sequential customer ids land uniformly.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fnv1a hashes a node id (FNV-1a 64); mix64 finalizes its vnode points.
func fnv1a(s string) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
