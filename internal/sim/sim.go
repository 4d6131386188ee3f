// Package sim is the trace-driven simulation harness behind Section 4 of
// the paper: it replays one fixed reference string through competing
// replacement policies "in identical circumstances", applies the paper's
// warm-up protocol (drop the first references until the cache reaches a
// quasi-stable state, then measure), computes buffer hit ratios, and
// searches for equi-effective buffer sizes to produce the B(1)/B(2)
// cost/performance columns of Tables 4.1-4.3.
package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/workload"
)

// Result reports one simulation run of one policy at one buffer size.
type Result struct {
	Policy string
	Buffer int
	// Measured is the number of references inside the measurement window.
	Measured int
	// Hits is the number of measured references that hit in buffer.
	Hits int
	// WarmupRefs is the number of leading references excluded.
	WarmupRefs int
}

// HitRatio returns the buffer hit ratio C = h/T of §4.1.
func (r Result) HitRatio() float64 {
	if r.Measured == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Measured)
}

// String renders the run for logs.
func (r Result) String() string {
	return fmt.Sprintf("%s B=%d hit=%.4f (%d/%d)", r.Policy, r.Buffer, r.HitRatio(), r.Hits, r.Measured)
}

// Factory constructs a policy instance for a given buffer size, so one
// experiment can sweep buffer sizes.
type Factory func(buffer int) policy.Cache

// Standard factories for every policy in the repository.

// LRUK returns a factory for the paper's LRU-K policy with the analysis
// configuration (CRP=0, unlimited retention), as used in all Section 4
// experiments.
func LRUK(k int) Factory {
	return func(b int) policy.Cache { return core.NewLRUK(b, k) }
}

// LRUKOpts returns a factory for LRU-K with explicit §2.1 periods.
func LRUKOpts(k int, opts core.Options) Factory {
	return func(b int) policy.Cache { return core.NewLRUKWithOptions(b, k, opts) }
}

// LRU returns a factory for classical LRU (LRU-1).
func LRU() Factory { return func(b int) policy.Cache { return policy.NewLRU(b) } }

// LFU returns a factory for in-cache LFU.
func LFU() Factory { return func(b int) policy.Cache { return policy.NewLFU(b) } }

// FIFO returns a factory for FIFO.
func FIFO() Factory { return func(b int) policy.Cache { return policy.NewFIFO(b) } }

// Clock returns a factory for second-chance CLOCK.
func Clock() Factory { return func(b int) policy.Cache { return policy.NewClock(b) } }

// TwoQ returns a factory for 2Q with the authors' recommended tuning.
func TwoQ() Factory { return func(b int) policy.Cache { return policy.NewTwoQ(b) } }

// ARC returns a factory for ARC.
func ARC() Factory { return func(b int) policy.Cache { return policy.NewARC(b) } }

// FBR returns a factory for Frequency-Based Replacement ([ROBDEV]) with
// default section sizing and aging.
func FBR() Factory { return func(b int) policy.Cache { return policy.NewFBR(b, 0) } }

// SLRU returns a factory for Segmented LRU with the common 80% protected
// segment.
func SLRU() Factory { return func(b int) policy.Cache { return policy.NewSLRU(b, 0.8) } }

// LIRS returns a factory for the LIRS policy with the authors' 1% HIR
// share and a 3x ghost bound.
func LIRS() Factory { return func(b int) policy.Cache { return policy.NewLIRS(b, 0, 0) } }

// TinyLFU returns a factory for W-TinyLFU with the authors' 1% window.
func TinyLFU() Factory { return func(b int) policy.Cache { return policy.NewTinyLFU(b) } }

// A0 returns a factory for the Definition 3.1 oracle; the experiment
// installs the workload's probability vector.
func A0() Factory { return func(b int) policy.Cache { return policy.NewA0(b) } }

// Belady returns a factory for the offline optimal B0; the experiment
// installs the trace.
func Belady() Factory { return func(b int) policy.Cache { return policy.NewBelady(b) } }

// FactoryByName resolves a policy name as used by the CLI tools:
// lru-1/lru, lru-2, lru-3, ..., lfu, fifo, clock, 2q, arc, fbr, slru,
// lirs, tinylfu, a0, b0 (aliases opt, belady).
func FactoryByName(name string) (Factory, error) {
	switch name {
	case "lru", "lru-1":
		return LRU(), nil
	case "lfu":
		return LFU(), nil
	case "fifo":
		return FIFO(), nil
	case "clock":
		return Clock(), nil
	case "2q":
		return TwoQ(), nil
	case "arc":
		return ARC(), nil
	case "fbr":
		return FBR(), nil
	case "slru":
		return SLRU(), nil
	case "lirs":
		return LIRS(), nil
	case "tinylfu", "w-tinylfu":
		return TinyLFU(), nil
	case "a0":
		return A0(), nil
	case "b0", "opt", "belady":
		return Belady(), nil
	}
	var k int
	if n, err := fmt.Sscanf(name, "lru-%d", &k); err == nil && n == 1 && k >= 1 {
		return LRUK(k), nil
	}
	return nil, fmt.Errorf("sim: unknown policy %q", name)
}

// Experiment is one workload instance: a fixed reference string replayed
// identically through every policy, with a warm-up prefix excluded from
// measurement, and optionally the workload's true probability vector for
// the A0 oracle.
type Experiment struct {
	Name   string
	Trace  []policy.PageID
	Warmup int
	// Probs, when non-nil, is installed into ProbabilityAware policies.
	Probs map[policy.PageID]float64
	// curve caches the LRU stack-distance curve (see stackdist.go).
	curve *LRUCurve
}

// NewExperiment materialises warmup+measure references from g. When g is
// Stationary its probability vector is attached for A0.
func NewExperiment(name string, g workload.Generator, warmup, measure int) *Experiment {
	if warmup < 0 || measure <= 0 {
		panic(fmt.Sprintf("sim: invalid window warmup=%d measure=%d", warmup, measure))
	}
	e := &Experiment{
		Name:   name,
		Trace:  workload.Generate(g, warmup+measure),
		Warmup: warmup,
	}
	if st, ok := g.(workload.Stationary); ok {
		e.Probs = st.Probabilities()
	}
	return e
}

// NewTraceExperiment wraps an existing reference string (e.g. a trace file)
// with a warm-up prefix length.
func NewTraceExperiment(name string, refs []policy.PageID, warmup int) *Experiment {
	if warmup < 0 || warmup >= len(refs) {
		panic(fmt.Sprintf("sim: warmup %d outside trace of %d refs", warmup, len(refs)))
	}
	return &Experiment{Name: name, Trace: refs, Warmup: warmup}
}

// Run replays the experiment through a fresh policy instance at the given
// buffer size, following the §4.1 protocol: the first Warmup references
// bring the cache to a quasi-stable state, the remainder are measured.
func (e *Experiment) Run(f Factory, buffer int) Result {
	c := f(buffer)
	if pa, ok := c.(policy.ProbabilityAware); ok && e.Probs != nil {
		pa.SetProbabilities(e.Probs)
	}
	if ta, ok := c.(policy.TraceAware); ok {
		ta.SetTrace(e.Trace)
	}
	res := Result{
		Policy:     c.Name(),
		Buffer:     buffer,
		Measured:   len(e.Trace) - e.Warmup,
		WarmupRefs: e.Warmup,
	}
	for i, p := range e.Trace {
		hit := c.Reference(p)
		if hit && i >= e.Warmup {
			res.Hits++
		}
	}
	return res
}

// HitRatio is shorthand for Run(f, buffer).HitRatio().
func (e *Experiment) HitRatio(f Factory, buffer int) float64 {
	return e.Run(f, buffer).HitRatio()
}
