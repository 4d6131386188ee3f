// Command bench is the repository's benchmark: four closed-loop workloads
// against the page service as shipped, end-to-end metrics from an untraced
// run and per-layer metrics from a separate traced run. See README.md.
//
//	go run -C bench . -workload embed_hot_read -seed 1 -seconds 20 -trace 0
//	go run -C bench . -list
//	go run -C bench . -selfcheck 5
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics of the chosen run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// jsonMetric is one reported value.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the run's last output line.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	var (
		workload  = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Uint64("seed", 1, "seed the workload's inputs derive from")
		seconds   = flag.Float64("seconds", runSeconds, "length of the measured phase; scales the frozen per-window op counts")
		trace     = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and out/trace-<workload>.json")
		list      = flag.Bool("list", false, "print every workload and metric with unit, direction and bound, and exit")
		selfcheck = flag.Int("selfcheck", 0, "run the untraced suite as two interleaved sets of N runs and compare them against the bounds")
		genJSON   = flag.Bool("benchmark-json", false, "print BENCHMARK.json as generated from the in-code tables, and exit")
	)
	flag.Parse()
	switch {
	case *list:
		printList(os.Stdout)
		return
	case *genJSON:
		os.Stdout.Write(benchmarkJSON())
		return
	case *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0:
		flag.Usage()
		os.Exit(2)
	}
	// Two clients on two cores, whatever the host offers.
	runtime.GOMAXPROCS(numClients)

	defs := workloads
	if *workload != "all" {
		def := findWorkload(*workload)
		if def == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (see -list)\n", *workload)
			os.Exit(2)
		}
		defs = []*workloadDef{def}
	}
	if *selfcheck > 0 {
		os.Exit(runSelfcheck(defs, *selfcheck, *seed, *seconds))
	}
	ok := true
	for _, def := range defs {
		cfg := runConfig{def: def, seed: *seed, seconds: *seconds, traced: *trace == 1, log: os.Stdout}
		fmt.Printf("%s  seed=%d seconds=%g trace=%d\n", def.Name, *seed, *seconds, *trace)
		run, table := runUntraced, endToEnd
		if cfg.traced {
			run, table = runTraced, perLayer
		}
		res, err := run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", def.Name, err)
			os.Exit(1)
		}
		out := jsonResult{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
		for _, d := range table {
			fmt.Printf("  %-38s %14.4f %s\n", d.Name, res.metrics[d.Name], d.Unit)
			out.Metrics[d.Name] = jsonMetric{res.metrics[d.Name], d.Unit}
		}
		line, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
		ok = ok && res.correct
	}
	if !ok {
		os.Exit(1)
	}
}
