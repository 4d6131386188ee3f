package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/workload"
)

func TestResultHitRatio(t *testing.T) {
	r := Result{Measured: 200, Hits: 50}
	if got := r.HitRatio(); got != 0.25 {
		t.Errorf("HitRatio = %v, want 0.25", got)
	}
	if (Result{}).HitRatio() != 0 {
		t.Error("empty Result HitRatio not 0")
	}
	if !strings.Contains(r.String(), "0.25") {
		t.Errorf("String() = %q", r.String())
	}
}

func TestFactoryByName(t *testing.T) {
	known := []string{"lru", "lru-1", "lru-2", "lru-7", "lfu", "fifo",
		"clock", "2q", "arc", "fbr", "slru", "lirs", "tinylfu", "w-tinylfu",
		"a0", "b0", "opt", "belady"}
	for _, name := range known {
		f, err := FactoryByName(name)
		if err != nil {
			t.Errorf("FactoryByName(%q): %v", name, err)
			continue
		}
		c := f(8)
		if c.Capacity() != 8 {
			t.Errorf("%q: capacity %d", name, c.Capacity())
		}
	}
	// mru, gclock, lrd and random were deleted baselines: no table or
	// experiment ran them, and their names must not resolve.
	for _, name := range []string{"", "bogus", "lru-0", "lru-x", "mru", "gclock", "lrd", "random"} {
		if _, err := FactoryByName(name); err == nil {
			t.Errorf("FactoryByName(%q) accepted", name)
		}
	}
}

func TestExperimentWarmupExclusion(t *testing.T) {
	// Trace: warmup [1 2], measured [1 2 3]. With capacity 2, the measured
	// window hits on 1 and 2 and misses on 3.
	e := NewTraceExperiment("manual", []policy.PageID{1, 2, 1, 2, 3}, 2)
	res := e.Run(LRU(), 2)
	if res.Measured != 3 || res.Hits != 2 {
		t.Errorf("Run = %+v, want Measured=3 Hits=2", res)
	}
	if res.WarmupRefs != 2 {
		t.Errorf("WarmupRefs = %d", res.WarmupRefs)
	}
}

func TestExperimentInstallsProbabilitiesAndTrace(t *testing.T) {
	g := workload.NewTwoPool(10, 100, 1)
	e := NewExperiment("tp", g, 100, 400)
	if e.Probs == nil {
		t.Fatal("stationary workload did not attach probabilities")
	}
	// A0 must behave like an informed oracle: near-perfect on the hot pool
	// with enough buffers.
	res := e.Run(A0(), 10)
	if res.HitRatio() < 0.4 {
		t.Errorf("A0 hit ratio %.3f, want ~0.5 (probabilities not installed?)", res.HitRatio())
	}
	// Belady must accept the trace without panicking and dominate LRU.
	opt := e.Run(Belady(), 10).HitRatio()
	lru := e.Run(LRU(), 10).HitRatio()
	if opt < lru {
		t.Errorf("Belady %.3f below LRU %.3f", opt, lru)
	}
}

func TestExperimentValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewExperiment("x", workload.NewTwoPool(1, 2, 1), -1, 10) },
		func() { NewExperiment("x", workload.NewTwoPool(1, 2, 1), 0, 0) },
		func() { NewTraceExperiment("x", []policy.PageID{1, 2}, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid experiment accepted")
				}
			}()
			f()
		}()
	}
}

func TestEquiEffectiveOnAnalyticCurve(t *testing.T) {
	// ratio(b) = b/1000 capped at 1: target 0.35 should land at b≈350.
	ratio := func(b int) float64 {
		r := float64(b) / 1000
		if r > 1 {
			return 1
		}
		return r
	}
	got, ok := EquiEffective(ratio, 0.35, 10, 10000)
	if !ok || math.Abs(got-350) > 1 {
		t.Errorf("EquiEffective = %v,%v, want ~350,true", got, ok)
	}
	// Target above reach: capped at maxB with ok=false.
	got, ok = EquiEffective(ratio, 0.99, 10, 500)
	if ok || got != 500 {
		t.Errorf("unreachable target = %v,%v, want 500,false", got, ok)
	}
	// Start already above target: shrink downward.
	got, ok = EquiEffective(ratio, 0.10, 800, 1000)
	if !ok || math.Abs(got-100) > 1 {
		t.Errorf("shrinking search = %v,%v, want ~100,true", got, ok)
	}
}

func TestTableRenderAndLookup(t *testing.T) {
	tb := &Table{
		Title:        "Table X",
		Note:         "unit test",
		Policies:     []string{"LRU-1", "LRU-2"},
		HasEquiRatio: true,
		Rows: []TableRow{
			{Buffer: 60, Ratios: []float64{0.14, 0.291}, EquiRatio: 2.3},
		},
	}
	out := tb.Render()
	for _, want := range []string{"Table X", "LRU-2", "0.291", "2.30", "B(1)/B(2)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	if r, ok := tb.Ratio("LRU-2", 60); !ok || r != 0.291 {
		t.Errorf("Ratio = %v,%v", r, ok)
	}
	if _, ok := tb.Ratio("LFU", 60); ok {
		t.Error("unknown policy column found")
	}
	if _, ok := tb.Ratio("LRU-1", 999); ok {
		t.Error("unknown buffer row found")
	}
}

// TestTable41Shape runs a reduced Table 4.1 and asserts the paper's
// qualitative results: LRU-2 ≫ LRU-1 at small buffers, LRU-3 between
// LRU-2 and A0, and a B(1)/B(2) cost/performance factor of ~2 or more.
func TestTable41Shape(t *testing.T) {
	tb := RunTable41(Table41Config{Buffers: []int{60, 100, 200}, Repeats: 3})
	for _, row := range tb.Rows {
		lru1, lru2, lru3, a0 := row.Ratios[0], row.Ratios[1], row.Ratios[2], row.Ratios[3]
		if lru2 <= lru1 {
			t.Errorf("B=%d: LRU-2 (%.3f) not above LRU-1 (%.3f)", row.Buffer, lru2, lru1)
		}
		if a0 < lru3-0.02 {
			t.Errorf("B=%d: A0 (%.3f) below LRU-3 (%.3f)", row.Buffer, a0, lru3)
		}
		if lru3 < lru2-0.02 {
			t.Errorf("B=%d: LRU-3 (%.3f) well below LRU-2 (%.3f)", row.Buffer, lru3, lru2)
		}
	}
	// Paper: B(1)/B(2) = 2.3 at B=60, 3.0 at B=100, 2.3 at B=200.
	if r := tb.Rows[0].EquiRatio; r < 1.8 {
		t.Errorf("B=60: B(1)/B(2) = %.2f, want >= 1.8 (paper: 2.3)", r)
	}
	if r := tb.Rows[1].EquiRatio; r < 2.0 {
		t.Errorf("B=100: B(1)/B(2) = %.2f, want >= 2.0 (paper: 3.0)", r)
	}
}

// TestTable41AbsoluteValues spot-checks cells against the paper within a
// modest tolerance (simulation noise plus protocol ambiguity).
func TestTable41AbsoluteValues(t *testing.T) {
	tb := RunTable41(Table41Config{Buffers: []int{60, 100, 450}, Repeats: 5})
	check := func(policyName string, buffer int, want, tol float64) {
		got, ok := tb.Ratio(policyName, buffer)
		if !ok {
			t.Fatalf("missing cell %s/B=%d", policyName, buffer)
		}
		if math.Abs(got-want) > tol {
			t.Errorf("%s at B=%d: %.3f, paper %.3f (tol %.3f)", policyName, buffer, got, want, tol)
		}
	}
	check("LRU-1", 60, 0.14, 0.03)
	check("LRU-2", 60, 0.291, 0.03)
	check("A0", 60, 0.300, 0.02)
	check("LRU-1", 100, 0.22, 0.03)
	check("LRU-2", 100, 0.459, 0.04)
	check("A0", 100, 0.500, 0.02)
	check("LRU-1", 450, 0.50, 0.03)
	check("LRU-2", 450, 0.517, 0.03)
}

// TestTable42Shape runs a reduced Table 4.2 and asserts LRU-1 < LRU-2 < A0
// with the paper's milder gains ("the gains of LRU-2 are a little lower"
// than the two-pool experiment).
func TestTable42Shape(t *testing.T) {
	tb := RunTable42(Table42Config{Buffers: []int{40, 100, 300}, Repeats: 3})
	for _, row := range tb.Rows {
		lru1, lru2, a0 := row.Ratios[0], row.Ratios[1], row.Ratios[2]
		if lru2 <= lru1 {
			t.Errorf("B=%d: LRU-2 (%.3f) not above LRU-1 (%.3f)", row.Buffer, lru2, lru1)
		}
		if a0 < lru2 {
			t.Errorf("B=%d: A0 (%.3f) below LRU-2 (%.3f)", row.Buffer, a0, lru2)
		}
	}
	// Paper: A0 = 0.640 at B=40 (the CDF at 40 pages).
	if a0, _ := tb.Ratio("A0", 40); math.Abs(a0-0.640) > 0.02 {
		t.Errorf("A0 at B=40 = %.3f, paper 0.640", a0)
	}
}

// TestKSweepApproachesA0 checks the §4.1 in-text claim from K=2 to K=3,
// the range over which it holds on the paper's measurement window.
func TestKSweepApproachesA0(t *testing.T) {
	tb := RunKSweep(100, 4, 3, 7)
	row := tb.Rows[0]
	a0 := row.Ratios[len(row.Ratios)-1]
	gap2 := a0 - row.Ratios[1] // A0 - LRU-2
	gap3 := a0 - row.Ratios[2] // A0 - LRU-3
	if gap3 > gap2+0.01 {
		t.Errorf("LRU-3 gap to A0 (%.3f) above LRU-2 gap (%.3f)", gap3, gap2)
	}
	if row.Ratios[2] < row.Ratios[1]-0.01 {
		t.Errorf("LRU-3 (%.3f) below LRU-2 (%.3f) on stable pattern", row.Ratios[2], row.Ratios[1])
	}
}

// TestTable43Shape runs a reduced Table 4.3 against the synthetic OLTP
// workload and asserts the paper's qualitative results: "LRU-2 was
// superior to both LRU and LFU throughout the spectrum of buffer sizes",
// LFU between the two ("surprisingly good" but "still significantly worse
// than LRU-2"), hit ratios converging as B grows, and B(1)/B(2) well above
// 1 at small B and declining.
func TestTable43Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full OLTP trace replay")
	}
	// The default DriftEvery is calibrated for the full 470k-reference
	// trace; the shortened trace needs a proportionally faster drift so the
	// warm set turns over the same fraction of its identity.
	tb := RunTable43(Table43Config{
		OLTP:    workload.OLTPConfig{DriftEvery: 300},
		Refs:    180000,
		Warmup:  30000,
		Buffers: []int{200, 1000, 3000},
	})
	for _, row := range tb.Rows {
		lru1, lru2, lfu := row.Ratios[0], row.Ratios[1], row.Ratios[2]
		if lru2 <= lfu {
			t.Errorf("B=%d: LRU-2 (%.3f) not above LFU (%.3f)", row.Buffer, lru2, lfu)
		}
		if lfu <= lru1 {
			t.Errorf("B=%d: LFU (%.3f) not above LRU-1 (%.3f)", row.Buffer, lfu, lru1)
		}
	}
	// Relative gap shrinks with B (convergence).
	gapSmall := (tb.Rows[0].Ratios[1] - tb.Rows[0].Ratios[0]) / tb.Rows[0].Ratios[1]
	gapLarge := (tb.Rows[2].Ratios[1] - tb.Rows[2].Ratios[0]) / tb.Rows[2].Ratios[1]
	if gapLarge >= gapSmall {
		t.Errorf("relative LRU-2/LRU-1 gap grew with B: %.3f -> %.3f", gapSmall, gapLarge)
	}
	if r := tb.Rows[0].EquiRatio; r < 1.5 {
		t.Errorf("B=200: B(1)/B(2) = %.2f, want >= 1.5", r)
	}
	if tb.Rows[0].EquiRatio <= tb.Rows[2].EquiRatio {
		t.Errorf("B(1)/B(2) not declining: %.2f -> %.2f", tb.Rows[0].EquiRatio, tb.Rows[2].EquiRatio)
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{
		Policies:     []string{"LRU-1", "LRU-2"},
		HasEquiRatio: true,
		Rows: []TableRow{
			{Buffer: 60, Ratios: []float64{0.14, 0.291}, EquiRatio: 2.3},
			{Buffer: 80, Ratios: []float64{0.18, 0.382}, EquiRatio: 2.6},
		},
	}
	got := tb.CSV()
	want := "B,LRU-1,LRU-2,B(1)/B(2)\n60,0.140000,0.291000,2.3000\n80,0.180000,0.382000,2.6000\n"
	if got != want {
		t.Errorf("CSV:\n%q\nwant:\n%q", got, want)
	}
	tb.HasEquiRatio = false
	if got := tb.CSV(); strings.Contains(got, "B(1)") {
		t.Error("CSV includes equi column when disabled")
	}
}

// TestTablesDeterministic: identical configurations must regenerate
// identical tables — the property EXPERIMENTS.md's recorded numbers rely
// on.
func TestTablesDeterministic(t *testing.T) {
	cfg := Table41Config{Buffers: []int{60, 100}, Repeats: 2, Seed: 5}
	a := RunTable41(cfg)
	b := RunTable41(cfg)
	for i := range a.Rows {
		for j := range a.Rows[i].Ratios {
			if a.Rows[i].Ratios[j] != b.Rows[i].Ratios[j] {
				t.Fatalf("row %d col %d: %v != %v", i, j, a.Rows[i].Ratios[j], b.Rows[i].Ratios[j])
			}
		}
		if a.Rows[i].EquiRatio != b.Rows[i].EquiRatio {
			t.Fatalf("row %d equi: %v != %v", i, a.Rows[i].EquiRatio, b.Rows[i].EquiRatio)
		}
	}
	// A different seed must (in general) change at least one cell.
	cfg.Seed = 6
	c := RunTable41(cfg)
	same := true
	for i := range a.Rows {
		for j := range a.Rows[i].Ratios {
			if a.Rows[i].Ratios[j] != c.Rows[i].Ratios[j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced bit-identical tables; seeding is broken")
	}
}
