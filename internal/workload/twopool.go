package workload

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/stats"
)

// TwoPool is the §4.1 two-pool experiment: references alternate strictly
// between Pool 1 (N1 pages, ids 0..N1-1) and Pool 2 (N2 pages, ids
// N1..N1+N2-1), the page within a pool chosen uniformly at random. Each
// Pool 1 page therefore has reference probability β1 = 1/(2·N1) and each
// Pool 2 page β2 = 1/(2·N2). With N1 < N2 this models Example 1.1's
// alternating B-tree-leaf / record-page pattern: I1, R1, I2, R2, ...
type TwoPool struct {
	n1, n2 int
	rng    *stats.RNG
	// next tracks which pool the next reference draws from; the paper's
	// string starts with an index (Pool 1) reference.
	pool1Next bool
}

// NewTwoPool returns the generator with the paper's convention N1 < N2.
// The Table 4.1 configuration is N1=100, N2=10000.
func NewTwoPool(n1, n2 int, seed uint64) *TwoPool {
	if n1 <= 0 || n2 <= 0 {
		panic(fmt.Sprintf("workload: pool sizes must be positive, got %d, %d", n1, n2))
	}
	return &TwoPool{n1: n1, n2: n2, rng: stats.NewRNG(seed), pool1Next: true}
}

// Name implements Generator.
func (g *TwoPool) Name() string { return fmt.Sprintf("two-pool(N1=%d,N2=%d)", g.n1, g.n2) }

// Next implements Generator.
func (g *TwoPool) Next() policy.PageID {
	var p policy.PageID
	if g.pool1Next {
		p = policy.PageID(g.rng.Intn(g.n1))
	} else {
		p = policy.PageID(g.n1 + g.rng.Intn(g.n2))
	}
	g.pool1Next = !g.pool1Next
	return p
}

// Probabilities implements Stationary: β1 = 1/(2N1) for Pool 1 pages and
// β2 = 1/(2N2) for Pool 2 pages.
func (g *TwoPool) Probabilities() map[policy.PageID]float64 {
	probs := make(map[policy.PageID]float64, g.n1+g.n2)
	b1 := 1 / (2 * float64(g.n1))
	b2 := 1 / (2 * float64(g.n2))
	for i := 0; i < g.n1; i++ {
		probs[policy.PageID(i)] = b1
	}
	for i := 0; i < g.n2; i++ {
		probs[policy.PageID(g.n1+i)] = b2
	}
	return probs
}

// IsHot reports whether p belongs to Pool 1, for per-pool accounting in
// tests and examples.
func (g *TwoPool) IsHot(p policy.PageID) bool { return int(p) < g.n1 }
