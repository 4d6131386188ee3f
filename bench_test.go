// Benchmark harness: the per-reference cost of the policies, the TPC-A
// correlated-reference ablation and the §5 budgeted LRU-K. The paper's tables are not benchmarks: the
// experiment tests pin reduced-scale runs to testdata/*.golden, and
// cmd/tables produces the full-scale versions.
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/workload"
)

// --- micro-benchmarks: per-reference cost of the policies themselves ---

func benchPolicy(b *testing.B, c policy.Cache, pages int) {
	b.Helper()
	g := workload.NewZipfian(pages, 0.8, 0.2, 1)
	trace := workload.Generate(g, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reference(trace[i&(1<<16-1)])
	}
}

// BenchmarkLRU2Reference measures the paper's claim that LRU-K "incurs
// little bookkeeping overhead": one reference through the full HIST/LAST
// machinery and the search-tree victim index.
func BenchmarkLRU2Reference(b *testing.B) {
	benchPolicy(b, core.NewLRUK(1024, 2), 16384)
}

// BenchmarkLRU2ReferenceWithCRP adds the Correlated Reference Period and
// retained-history purge to the per-reference path.
func BenchmarkLRU2ReferenceWithCRP(b *testing.B) {
	benchPolicy(b, core.NewLRUKWithOptions(1024, 2, core.Options{
		CorrelatedReferencePeriod: 8,
		RetainedInformationPeriod: 8192,
	}), 16384)
}

// BenchmarkLRU1Reference is the classical-LRU baseline cost.
func BenchmarkLRU1Reference(b *testing.B) {
	benchPolicy(b, policy.NewLRU(1024), 16384)
}

// BenchmarkLFUReference is the O(1) frequency-list LFU cost.
func BenchmarkLFUReference(b *testing.B) {
	benchPolicy(b, policy.NewLFU(1024), 16384)
}

// BenchmarkARCReference is the ARC baseline cost.
func BenchmarkARCReference(b *testing.B) {
	benchPolicy(b, policy.NewARC(1024), 16384)
}

// BenchmarkTwoQReference is the 2Q baseline cost.
func BenchmarkTwoQReference(b *testing.B) {
	benchPolicy(b, policy.NewTwoQ(1024), 16384)
}

// BenchmarkTPCA is the Example 1.1/[TPC-A] ablation: LRU-1 vs naive LRU-2
// vs LRU-2 with a transaction-spanning Correlated Reference Period on the
// TPC-A transaction stream (see examples/tpca).
func BenchmarkTPCA(b *testing.B) {
	run := func(k int, crp policy.Tick) float64 {
		g, err := workload.NewTPCA(workload.TPCAConfig{}, 5)
		if err != nil {
			b.Fatal(err)
		}
		c := core.NewLRUKWithOptions(600, k, core.Options{CorrelatedReferencePeriod: crp})
		hits, total := 0, 0
		for i := 0; i < 160000; i++ {
			hit := c.Reference(g.Next())
			if i >= 40000 {
				total++
				if hit {
					hits++
				}
			}
		}
		return float64(hits) / float64(total)
	}
	for i := 0; i < b.N; i++ {
		lru1 := run(1, 0)
		naive := run(2, 0)
		corrected := run(2, 8)
		if i == 0 {
			b.Logf("TPC-A B=600: LRU-1 %.3f, LRU-2/CRP=0 %.3f, LRU-2/CRP=8 %.3f", lru1, naive, corrected)
		}
	}
}

// BenchmarkBudgetedLRUK exercises the Section 5 future-work feature: a
// fixed memory budget dynamically split between frames and history blocks.
func BenchmarkBudgetedLRUK(b *testing.B) {
	g := workload.NewZipfian(16384, 0.8, 0.2, 1)
	trace := workload.Generate(g, 1<<16)
	c := core.NewBudgetedLRUK(1024, 2, 100, core.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reference(trace[i&(1<<16-1)])
	}
}
