// Command lruksim is the general buffer-replacement simulator: it replays
// a workload (generated or from a trace file) through one or more policies
// across a sweep of buffer sizes and prints the hit-ratio table.
//
// Usage:
//
//	lruksim -workload twopool -policies lru-1,lru-2,lru-3,a0 -buffers 60,100,200
//	lruksim -trace oltp.trc -policies lru-1,lru-2,lfu,2q,arc -buffers 100,1000
//	lruksim -workload zipf -policies lru-2 -buffers 100 -crp 4 -rip 2000
//
// Policies: lru-1 (lru), lru-K for any K, lfu, fifo, clock, 2q, arc, fbr,
// slru, lirs, tinylfu, a0 (needs a generated stationary workload), and
// b0 (alias opt).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		wl       = flag.String("workload", "", "generated workload: twopool, zipf, oltp, scan, hotspot")
		traceIn  = flag.String("trace", "", "binary trace file to replay instead of a generated workload")
		policies = flag.String("policies", "lru-1,lru-2", "comma-separated policy list")
		buffers  = flag.String("buffers", "100", "comma-separated buffer sizes")
		refs     = flag.Int("refs", 200000, "references to generate (generated workloads)")
		warmup   = flag.Int("warmup", 0, "warm-up references excluded from measurement (default refs/5)")
		seed     = flag.Uint64("seed", 1, "RNG seed")
		crp      = flag.Int64("crp", 0, "Correlated Reference Period for lru-K policies, in references")
		rip      = flag.Int64("rip", 0, "Retained Information Period for lru-K policies (0 = unlimited)")
	)
	flag.Parse()
	if err := run(os.Stdout, *wl, *traceIn, *policies, *buffers, *refs, *warmup, *seed, *crp, *rip); err != nil {
		fmt.Fprintln(os.Stderr, "lruksim:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, wl, traceIn, policies, buffers string, refs, warmup int, seed uint64, crp, rip int64) error {
	if (wl == "") == (traceIn == "") {
		return fmt.Errorf("exactly one of -workload and -trace is required")
	}
	if warmup == 0 {
		warmup = refs / 5
	}

	var exp *sim.Experiment
	switch {
	case traceIn != "":
		f, err := os.Open(traceIn)
		if err != nil {
			return err
		}
		refsSlice, err := trace.ReadBinary(f)
		f.Close()
		if err != nil {
			return err
		}
		if warmup >= len(refsSlice) {
			warmup = len(refsSlice) / 5
		}
		exp = sim.NewTraceExperiment(traceIn, refsSlice, warmup)
	default:
		g, err := makeGenerator(wl, seed)
		if err != nil {
			return err
		}
		exp = sim.NewExperiment(wl, g, warmup, refs-warmup)
	}

	var names []string
	var factories []sim.Factory
	opts := core.Options{
		CorrelatedReferencePeriod: policy.Tick(crp),
		RetainedInformationPeriod: policy.Tick(rip),
	}
	for _, name := range strings.Split(policies, ",") {
		name = strings.TrimSpace(name)
		f, err := factoryFor(name, opts)
		if err != nil {
			return err
		}
		factories = append(factories, f)
		names = append(names, strings.ToUpper(name))
	}

	sizes, err := parseInts(buffers)
	if err != nil {
		return fmt.Errorf("parsing -buffers: %w", err)
	}

	t := &sim.Table{
		Title:    "lruksim",
		Note:     fmt.Sprintf("%s, %d refs, %d warm-up", exp.Name, len(exp.Trace), exp.Warmup),
		Policies: names,
	}
	for _, b := range sizes {
		row := sim.TableRow{Buffer: b, Ratios: make([]float64, len(factories))}
		for i, f := range factories {
			row.Ratios[i] = exp.HitRatio(f, b)
		}
		t.Rows = append(t.Rows, row)
	}
	fmt.Fprintln(w, t.Render())
	return nil
}

// factoryFor resolves a policy name, applying the §2.1 period options to
// lru-K policies (other policies have no such knobs).
func factoryFor(name string, opts core.Options) (sim.Factory, error) {
	var k int
	if name == "lru" || name == "lru-1" {
		k = 1
	} else if n, err := fmt.Sscanf(name, "lru-%d", &k); err != nil || n != 1 {
		return sim.FactoryByName(name)
	}
	if k < 1 {
		return nil, fmt.Errorf("invalid policy %q", name)
	}
	return sim.LRUKOpts(k, opts), nil
}

func makeGenerator(name string, seed uint64) (workload.Generator, error) {
	switch name {
	case "twopool":
		return workload.NewTwoPool(100, 10000, seed), nil
	case "zipf":
		return workload.NewZipfian(1000, 0.8, 0.2, seed), nil
	case "oltp":
		return workload.NewOLTP(workload.OLTPConfig{}, seed)
	case "scan":
		return workload.NewScanInterference(50000, 400, 0.95, 2000, 5000, seed), nil
	case "hotspot":
		return workload.NewMovingHotSpot(10000, 200, 0.9, 20000, seed), nil
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("buffer size must be positive, got %d", v)
		}
		out = append(out, v)
	}
	return out, nil
}
