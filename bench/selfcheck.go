package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runSelfcheck runs the untraced suite as two interleaved sets of n runs
// (A1 B1 A2 B2 ...; run i of either set uses seed+i, as the driver varies
// the seed between runs) and compares the sets' medians per workload and
// end-to-end metric. The same code ran both, so any difference is the
// benchmark's own noise; it fails when a difference exceeds half the
// metric's bound. Each run is a fresh process: rss_peak_mb is a
// process-lifetime high-water mark.
func runSelfcheck(defs []*workloadDef, n int, seed uint64, seconds float64) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: selfcheck:", err)
		return 1
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, def := range defs {
				res, err := runChild(exe, def.Name, seed+uint64(i), seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: selfcheck: %s: %v\n", def.Name, err)
					return 1
				}
				for name, v := range res.Metrics {
					k := key{def.Name, name}
					sets[set][k] = append(sets[set][k], v.Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: set %c run %d/%d %s done\n", 'A'+set, i+1, n, def.Name)
			}
		}
	}
	fmt.Printf("%-20s %-18s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "diff", "spread", "bound", "verdict")
	failed := 0
	for _, def := range defs {
		for _, d := range endToEnd {
			k := key{def.Name, d.Name}
			a, b := median(sets[0][k]), median(sets[1][k])
			both := append(append([]float64(nil), sets[0][k]...), sets[1][k]...)
			diff := math.Abs(b-a) / a
			verdict := "ok"
			if diff > d.Bound/2 {
				verdict = "FAIL: sets differ by more than half the bound"
				failed++
			}
			fmt.Printf("%-20s %-18s %12.4f %12.4f %7.2f%% %7.2f%% %6.0f%%  %s\n",
				def.Name, d.Name, a, b, diff*100, iqrSpread(both)*100, d.Bound*100, verdict)
		}
	}
	if failed > 0 {
		fmt.Printf("selfcheck: %d metric(s) did not repeat within half their bound\n", failed)
		return 1
	}
	fmt.Println("selfcheck: every metric repeated within half its bound")
	return 0
}

// runChild runs one untraced run in a fresh process and parses its last
// output line.
func runChild(exe, workload string, seed uint64, seconds float64) (*jsonResult, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("run failed: %w\n%s", err, out)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res jsonResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last output line is not the result: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported incorrect outputs")
	}
	return &res, nil
}

// iqrSpread is the distance between the first and third quartile as a share
// of the median, the quartiles taken as Python's statistics.quantiles(v,
// n=4) takes them (exclusive method).
func iqrSpread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	quartile := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		j = max(1, min(j, n-1))
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (quartile(3) - quartile(1)) / median(s)
}
