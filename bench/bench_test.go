package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
)

// TestBenchmarkJSONMatchesTable fails when BENCHMARK.json and the in-code
// tables drift (names, units, bounds, workloads, command, paths).
// Regenerate with: go run -C bench . -benchmark-json > BENCHMARK.json
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go / workloads.go; regenerate it.\n--- generated ---\n%s", benchmarkJSON())
	}
}

// TestBenchmarkJSONMeetsTheDriversLimits checks the generated file against
// the limits the driver refuses a benchmark for.
func TestBenchmarkJSONMeetsTheDriversLimits(t *testing.T) {
	var f benchmarkFile
	if err := json.Unmarshal(benchmarkJSON(), &f); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not allowed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range f.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	hasSetup := false
	for _, m := range f.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is not allowed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range f.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %g", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s, better lower")
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range f.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is not allowed", m.Name, m.Unit)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d", f.RunSeconds)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
}

// TestSmoke runs every workload, untraced and traced, at a fraction of a
// second: each declared metric is emitted exactly once, the end-to-end ones
// are never zero, outputs check out, and the trace's spans nest. It keeps
// the benchmark compiling and running as the layers' public APIs change.
func TestSmoke(t *testing.T) {
	probeDivisor = 50
	defer func() { probeDivisor = 1 }()
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{def: def, seed: 3, seconds: 0.25, traced: traced, log: io.Discard}
			if testing.Verbose() {
				cfg.log = os.Stderr
			}
			run, table := runUntraced, endToEnd
			if traced {
				run, table = runTraced, perLayer
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.Name, traced, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", def.Name, traced, res.correct, res.attempted, res.failed)
			}
			if len(res.metrics) != len(table) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", def.Name, traced, len(res.metrics), len(table))
			}
			for _, d := range table {
				v, ok := res.metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not emitted", def.Name, traced, d.Name)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g; they must never be zero", def.Name, d.Name, v)
				}
			}
			if !traced {
				continue
			}
			data, err := os.ReadFile("out/trace-" + def.Name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatalf("%s: trace file: %v", def.Name, err)
			}
			if len(tf.Spans) == 0 {
				t.Errorf("%s: trace file holds no spans", def.Name)
			}
			if err := checkNesting(tf.Spans); err != nil {
				t.Errorf("%s: %v", def.Name, err)
			}
			children := 0
			for _, s := range tf.Spans {
				if s.Parent != 0 {
					children++
				}
			}
			if def.HotPages < def.dataPages() && def.StreamCap == 0 && children == 0 {
				t.Errorf("%s: the workload misses but no storage span hangs under a request", def.Name)
			}
		}
	}
}
