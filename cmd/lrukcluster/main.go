// Command lrukcluster is the cluster-side companion to lrukd: it drives
// membership changes with the crash-safe rebalance coordinator, inspects
// the views the nodes hold, and reassembles distributed traces. It serves
// nothing itself: a cluster is N lrukd processes started with one -cluster
// spec (README "Running a cluster").
//
// Usage:
//
//	lrukcluster view   -cluster "n0=127.0.0.1:4980,n1=127.0.0.1:4981,..."
//	lrukcluster remove -cluster "..." -node n2
//	lrukcluster add    -cluster "..." -node n3 -addr 127.0.0.1:4983
//
// remove and add fetch the authoritative view from the first reachable
// spec'd node, apply the membership edit with the epoch bumped, and drive
// the handoff: flip the shedding nodes, drain them with a flush barrier,
// copy the moving keys to their new owners, make the copies durable, then
// flip the rest of the cluster (DESIGN.md §16). The key population is
// taken from a SCAN of the contacted node. Every admin request of the run
// is issued under one sampled trace; the run prints "rebalance
// trace=<id>" so the handoff can be reassembled with the trace subcommand
// afterwards.
//
//	lrukcluster trace -obs "n0=127.0.0.1:9980,n1=..." <trace-id>
//
// trace fetches /spans?trace=<id> from every node's observability
// listener (the -obs spec maps node ids to obs addresses, same syntax as
// -cluster), stitches the spans into a tree by parent span id, and prints
// a per-node waterfall followed by one summary line:
//
//	lrukcluster: trace <id> spans=N nodes=M root_ns=... nest_violations=K
//
// Spans whose parent is not in the collected set (the client's root, or a
// MOVED bounce's origin) print as roots; nest_violations counts child
// spans whose interval escapes their parent's, which on a single host
// should be zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server/client"
	"repro/internal/server/wire"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "lrukcluster: usage: lrukcluster <view|add|remove|trace> [flags]")
		return 2
	}
	switch args[0] {
	case "view":
		return runView(ctx, args[1:], stdout, stderr)
	case "add", "remove":
		return runRebalance(ctx, args[0], args[1:], stdout, stderr)
	case "trace":
		return runTrace(ctx, args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "lrukcluster: unknown subcommand %q (want view, add, remove, or trace)\n", args[0])
		return 2
	}
}

// authoritativeView returns the view of the first reachable spec node and
// that node's record count, not the newest view: a node that missed a flip
// answers with an older one. ROADMAP item 3 owns choosing the newest.
func authoritativeView(ctx context.Context, spec wire.View) (wire.View, int, error) {
	var lastErr error
	for _, n := range spec.Nodes {
		cl, err := client.Dial(n.Addr)
		if err != nil {
			lastErr = err
			continue
		}
		v, err := cl.ViewGet(ctx)
		if err != nil {
			cl.Close()
			lastErr = err
			continue
		}
		keys, err := cl.Scan(ctx)
		cl.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if v.Epoch == 0 {
			return wire.View{}, 0, fmt.Errorf("node %s at %s is standalone (no view installed)", n.ID, n.Addr)
		}
		return v, keys, nil
	}
	return wire.View{}, 0, fmt.Errorf("no spec'd node reachable: %w", lastErr)
}

// runView prints the authoritative view and each member's held epoch.
func runView(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lrukcluster view", flag.ContinueOnError)
	fs.SetOutput(stderr)
	clusterFl := fs.String("cluster", "", "cluster spec \"id=addr,...\"")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := cluster.ParseSpec(*clusterFl)
	if err != nil {
		fmt.Fprintln(stderr, "lrukcluster:", err)
		return 2
	}
	v, keys, err := authoritativeView(ctx, spec)
	if err != nil {
		fmt.Fprintln(stderr, "lrukcluster:", err)
		return 1
	}
	fmt.Fprintf(stdout, "lrukcluster: epoch=%d keys=%d cluster %s\n", v.Epoch, keys, cluster.FormatSpec(v))
	for _, n := range v.Nodes {
		cl, err := client.Dial(n.Addr)
		if err != nil {
			fmt.Fprintf(stdout, "lrukcluster:   %s %s unreachable: %v\n", n.ID, n.Addr, err)
			continue
		}
		held, err := cl.ViewGet(ctx)
		cl.Close()
		if err != nil {
			fmt.Fprintf(stdout, "lrukcluster:   %s %s error: %v\n", n.ID, n.Addr, err)
			continue
		}
		fmt.Fprintf(stdout, "lrukcluster:   %s %s epoch=%d\n", n.ID, n.Addr, held.Epoch)
	}
	return 0
}

// runTrace assembles one distributed trace: fetch the trace's spans from
// every node's /spans endpoint, stitch them into a tree by parent span
// id, and print a waterfall plus a summary line.
func runTrace(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lrukcluster trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	obsFl := fs.String("obs", "", "observability spec \"id=host:port,...\" mapping node ids to their -obs-addr listeners")
	timeout := fs.Duration("timeout", 5*time.Second, "per-node fetch timeout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *obsFl == "" || fs.NArg() != 1 {
		fmt.Fprintln(stderr, "lrukcluster: usage: lrukcluster trace -obs \"id=host:port,...\" <trace-id>")
		return 2
	}
	traceID, err := obs.ParseHex64(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "lrukcluster:", err)
		return 2
	}
	// The -obs spec reuses the cluster spec syntax; only the ids and
	// addresses matter, not the epoch.
	spec, err := cluster.ParseSpec(*obsFl)
	if err != nil {
		fmt.Fprintln(stderr, "lrukcluster:", err)
		return 2
	}

	spans, unreachable := fetchSpans(ctx, spec.Nodes, traceID, *timeout, stderr)
	if unreachable == len(spec.Nodes) {
		fmt.Fprintln(stderr, "lrukcluster: no obs endpoint reachable")
		return 1
	}
	if len(spans) == 0 {
		fmt.Fprintf(stderr, "lrukcluster: trace %s: no spans found (expired from the ring, or never sampled)\n", traceID)
		return 1
	}
	printTrace(stdout, traceID, spans)
	return 0
}

// fetchSpans collects trace traceID's spans from each node's /spans
// endpoint, tagging every span with the node it came from when the
// recorder left the field empty. Unreachable nodes are reported and
// skipped — a partial trace still prints.
func fetchSpans(ctx context.Context, nodes []wire.NodeAddr, traceID obs.Hex64,
	timeout time.Duration, stderr io.Writer) (spans []obs.SpanRecord, unreachable int) {
	for _, n := range nodes {
		url := fmt.Sprintf("http://%s/spans?trace=%s", n.Addr, traceID)
		rctx, cancel := context.WithTimeout(ctx, timeout)
		req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
		var resp *http.Response
		if err == nil {
			resp, err = http.DefaultClient.Do(req)
		}
		if err != nil {
			cancel()
			fmt.Fprintf(stderr, "lrukcluster: %s: %v\n", n.ID, err)
			unreachable++
			continue
		}
		var got struct {
			Node  string           `json:"node"`
			Spans []obs.SpanRecord `json:"spans"`
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "lrukcluster: %s: decoding /spans: %v\n", n.ID, err)
			unreachable++
			continue
		}
		node := got.Node
		if node == "" {
			node = n.ID
		}
		for i := range got.Spans {
			if got.Spans[i].Node == "" {
				got.Spans[i].Node = node
			}
		}
		spans = append(spans, got.Spans...)
	}
	return spans, unreachable
}

// printTrace stitches the spans by parent span id and renders the
// waterfall: children indented under their parent, each line showing the
// node, span kind, offset from the trace's first span, and duration.
// Spans whose parent was not collected (the client's un-recorded root, a
// cross-node hop) are roots. The closing summary counts nest violations —
// children whose interval escapes their parent's.
func printTrace(stdout io.Writer, traceID obs.Hex64, spans []obs.SpanRecord) {
	byID := make(map[obs.Hex64]obs.SpanRecord, len(spans))
	children := make(map[obs.Hex64][]obs.SpanRecord)
	nodes := make(map[string]bool)
	var roots []obs.SpanRecord
	base := spans[0].Start
	for _, s := range spans {
		byID[s.Span] = s
		nodes[s.Node] = true
		if s.Start < base {
			base = s.Start
		}
	}
	for _, s := range spans {
		if _, ok := byID[s.Parent]; ok && s.Parent != s.Span {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	order := func(list []obs.SpanRecord) {
		sort.Slice(list, func(i, j int) bool { return list[i].Start < list[j].Start })
	}
	order(roots)
	for id := range children {
		order(children[id])
	}

	// A bulk operation (a traced scan, a rebalance copy) fans out
	// thousands of sibling spans; the waterfall prints the first few per
	// parent and elides the rest, while the counts below cover everything.
	const maxChildren = 16
	violations := 0
	var rootNS int64
	var walk func(s obs.SpanRecord, depth int)
	walk = func(s obs.SpanRecord, depth int) {
		annot := ""
		if s.Annot != 0 || s.Kind == obs.SpanRebalancePhase {
			annot = fmt.Sprintf(" annot=%d", s.Annot)
		}
		fmt.Fprintf(stdout, "lrukcluster:   %s[%s] %-15s +%.3fms %.3fms%s\n",
			strings.Repeat("  ", depth), s.Node, s.Kind,
			float64(s.Start-base)/1e6, float64(s.Dur)/1e6, annot)
		for i, c := range children[s.Span] {
			if c.Start < s.Start-nestSlopNS || c.Start+c.Dur > s.Start+s.Dur+nestSlopNS {
				violations++
			}
			if i < maxChildren {
				walk(c, depth+1)
			} else {
				countNested(c, children, &violations)
			}
		}
		if n := len(children[s.Span]); n > maxChildren {
			fmt.Fprintf(stdout, "lrukcluster:   %s  ... %d more children elided\n",
				strings.Repeat("  ", depth), n-maxChildren)
		}
	}
	for _, r := range roots {
		if r.Dur > rootNS {
			rootNS = r.Dur
		}
		walk(r, 0)
	}
	fmt.Fprintf(stdout, "lrukcluster: trace %s spans=%d nodes=%d root_ns=%d nest_violations=%d\n",
		traceID, len(spans), len(nodes), rootNS, violations)
}

// nestSlopNS is the tolerance the nesting check allows before calling a
// child's escape from its parent's interval a violation. A node stamps
// span starts as one wall-clock reading, taken when its recorder was made,
// plus a monotonic offset, so on one node a child nests exactly; a parent
// and child from two nodes compare two such readings, which may disagree
// by a little even when the calls nested perfectly.
const nestSlopNS = 100_000

// countNested tallies nesting violations in an elided subtree without
// printing it, so the summary line still covers every span.
func countNested(s obs.SpanRecord, children map[obs.Hex64][]obs.SpanRecord, violations *int) {
	for _, c := range children[s.Span] {
		if c.Start < s.Start-nestSlopNS || c.Start+c.Dur > s.Start+s.Dur+nestSlopNS {
			*violations++
		}
		countNested(c, children, violations)
	}
}

// runRebalance drives an add or remove: authoritative view in, membership
// edit, crash-safe handoff out.
func runRebalance(ctx context.Context, verb string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lrukcluster "+verb, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		clusterFl = fs.String("cluster", "", "cluster spec \"id=addr,...\" of current members")
		nodeID    = fs.String("node", "", "node id to "+verb)
		nodeAddr  = fs.String("addr", "", "joining node's address (add only; it must already be serving)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *nodeID == "" {
		fmt.Fprintln(stderr, "lrukcluster: -node is required")
		return 2
	}
	spec, err := cluster.ParseSpec(*clusterFl)
	if err != nil {
		fmt.Fprintln(stderr, "lrukcluster:", err)
		return 2
	}
	cur, keys, err := authoritativeView(ctx, spec)
	if err != nil {
		fmt.Fprintln(stderr, "lrukcluster:", err)
		return 1
	}

	var next wire.View
	switch verb {
	case "remove":
		next, err = cluster.Without(cur, *nodeID)
	case "add":
		if *nodeAddr == "" {
			fmt.Fprintln(stderr, "lrukcluster: add requires -addr")
			return 2
		}
		next, err = cluster.With(cur, *nodeID, *nodeAddr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "lrukcluster:", err)
		return 1
	}

	fmt.Fprintf(stdout, "lrukcluster: %s %s: epoch %d -> %d over %d keys\n",
		verb, *nodeID, cur.Epoch, next.Epoch, keys)
	// The whole handoff runs under one sampled trace: every traced node
	// records the admin requests it served as spans of this trace, so the
	// printed id feeds straight into `lrukcluster trace`. The coordinator
	// adopts the trace into its own recorder, which mints the ids and holds
	// the phase spans, whose durations are the phase timings printed after
	// the run. The root span id is a fresh id no span records: the phase
	// spans and the nodes' request spans hang beneath it.
	rec := obs.NewSpanRecorder("coordinator", 64)
	trace := rec.Adopt(obs.TraceContext{TraceID: rec.NewTraceID(), SpanID: rec.NewTraceID(), Sampled: true})
	fmt.Fprintf(stdout, "lrukcluster: rebalance trace=%016x\n", trace.TraceID)
	err = cluster.Rebalance(obs.ContextWithTrace(ctx, trace), cur, next, cluster.RebalanceConfig{
		Keys: int64(keys),
		Log: func(format string, a ...any) {
			fmt.Fprintf(stdout, "lrukcluster: "+format+"\n", a...)
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, "lrukcluster:", err)
		return 1
	}
	for _, span := range rec.TraceSpans(trace.TraceID) {
		fmt.Fprintf(stdout, "lrukcluster: phase %s %.3fms\n",
			cluster.RebalancePhaseName(int(span.Annot)), float64(span.Dur)/1e6)
	}
	fmt.Fprintf(stdout, "lrukcluster: %s complete; cluster %s\n", verb, cluster.FormatSpec(next))
	return 0
}
