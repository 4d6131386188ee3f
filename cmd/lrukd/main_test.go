package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"go/build"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/bufferpool"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/heapfile"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

// syncBuffer lets the test read lrukd's output while run is still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is one in-process lrukd: run on its own goroutine, with ctx
// cancellation standing in for SIGTERM.
type daemon struct {
	t              *testing.T
	stdout, stderr syncBuffer
	cancel         context.CancelFunc
	code           chan int
	// addr and obsAddr are parsed from the serving lines (obsAddr stays
	// empty without -obs-addr).
	addr, obsAddr string
}

// startDaemon boots lrukd on a free port with args appended and returns
// once it has printed its serving line (and, with -obs-addr among args,
// its observability line).
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	d := &daemon{t: t, cancel: cancel, code: make(chan int, 1)}
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	go func() { d.code <- run(ctx, args, &d.stdout, &d.stderr) }()
	wantObs := slices.Contains(args, "-obs-addr")
	deadline := time.Now().Add(15 * time.Second)
	for d.addr == "" || (wantObs && d.obsAddr == "") {
		if time.Now().After(deadline) {
			t.Fatalf("missing serving lines; stdout %q stderr %q", d.stdout.String(), d.stderr.String())
		}
		for _, line := range strings.Split(d.stdout.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "lrukd: serving on "); ok {
				d.addr = strings.Fields(rest)[0]
			}
			if rest, ok := strings.CutPrefix(line, "lrukd: observability on "); ok {
				d.obsAddr = strings.Fields(rest)[0]
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return d
}

// dial connects a wire client to the daemon, closed with the test.
func (d *daemon) dial() *client.Client {
	d.t.Helper()
	cl, err := client.Dial(d.addr)
	if err != nil {
		d.t.Fatal(err)
	}
	d.t.Cleanup(func() { cl.Close() })
	return cl
}

// fetch GETs path from the observability listener and returns the body.
func (d *daemon) fetch(path string) string {
	d.t.Helper()
	resp, err := http.Get("http://" + d.obsAddr + path)
	if err != nil {
		d.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		d.t.Fatalf("GET %s: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		d.t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	return string(body)
}

// drain delivers the shutdown signal and requires exit 0 with the clean
// shutdown line, which includes passing lrukd's internal leak check.
func (d *daemon) drain() {
	d.t.Helper()
	d.cancel()
	select {
	case code := <-d.code:
		if code != 0 {
			d.t.Fatalf("run exited %d; stderr %q", code, d.stderr.String())
		}
	case <-time.After(15 * time.Second):
		d.t.Fatalf("run did not exit after cancellation; stdout %q", d.stdout.String())
	}
	if !strings.Contains(d.stdout.String(), "lrukd: clean shutdown") {
		d.t.Fatalf("missing clean shutdown line; stdout %q stderr %q",
			d.stdout.String(), d.stderr.String())
	}
}

// TestRunServesAndDrainsCleanly is the daemon's whole life in miniature:
// boot on a free port, answer a request, receive the shutdown signal
// (modelled by ctx cancellation), and exit 0 having printed the clean
// shutdown line — which includes passing its own internal leak check.
func TestRunServesAndDrainsCleanly(t *testing.T) {
	d := startDaemon(t, "-customers", "500", "-frames", "64")
	cl := d.dial()
	rec, err := cl.Get(context.Background(), 42)
	if err != nil {
		t.Fatalf("get against daemon: %v", err)
	}
	if len(rec) == 0 {
		t.Fatal("daemon returned empty record")
	}
	// A repeat of the same key is a pool hit, so a non-zero ratio from STATS
	// proves real cache traffic flowed through the wire protocol.
	if _, err := cl.Get(context.Background(), 42); err != nil {
		t.Fatalf("repeat get: %v", err)
	}
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.DB.PoolHitRatio <= 0 {
		t.Errorf("STATS pool hit ratio = %v after a repeated get, want > 0", st.DB.PoolHitRatio)
	}
	d.drain()
}

// TestRunObservabilityPlane boots the daemon with -obs-addr, drives a
// little traffic, and asserts the second listener serves /metrics with
// every layer's families plus summary quantiles, /trace with eviction
// records, and the pprof index — then that shutdown still passes the
// internal leak check (the obs server must stop).
func TestRunObservabilityPlane(t *testing.T) {
	d := startDaemon(t,
		"-obs-addr", "127.0.0.1:0",
		"-customers", "300",
		"-frames", "32",
	)
	cl := d.dial()
	// Every other customer: 100 heap pages, a read set larger than the pool
	// (the load itself writes heap pages past it and evicts nothing).
	for i := int64(0); i < 200; i += 2 {
		if _, err := cl.Get(context.Background(), i); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}

	metrics := d.fetch("/metrics")
	for _, family := range []string{
		"lruk_pool_hits_total",
		"lruk_pool_fetch_seconds_count",
		"lruk_pool_sweep_victims_count",
		"lruk_disk_read_seconds_count",
		"lruk_policy_evictions_total",
		"lruk_server_request_seconds_count",
		"lruk_server_queue_wait_seconds_count",
		`quantile="0.99"`,
	} {
		if !strings.Contains(metrics, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}

	var trace []map[string]any
	if err := json.Unmarshal([]byte(d.fetch("/trace")), &trace); err != nil {
		t.Fatalf("trace decode: %v", err)
	}
	evicts := 0
	for _, rec := range trace {
		if rec["kind"] == "evict" {
			evicts++
		}
	}
	if evicts == 0 {
		t.Errorf("/trace holds no eviction records after a working set larger than the pool (%d records)", len(trace))
	}

	if idx := d.fetch("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Errorf("/debug/pprof/ index looks wrong: %.200q", idx)
	}
	d.drain()
}

// catalogFamilies returns the lruk_* family names DESIGN.md §12's "Metric
// catalog" table documents: the backticked names in its first column, with
// label suffixes such as {op=...} dropped and brace groups such as
// lruk_pool_{hits,misses}_total expanded.
func catalogFamilies(t *testing.T) map[string]bool {
	t.Helper()
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n### Metric catalog\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"### Metric catalog\" section")
	}
	section, _, _ = strings.Cut(section, "\n#")
	var expand func(string) []string
	expand = func(name string) []string {
		open := strings.IndexByte(name, '{')
		if open < 0 {
			return []string{name}
		}
		end := open + strings.IndexByte(name[open:], '}')
		group := name[open+1 : end]
		if strings.ContainsAny(group, "=.") {
			// A label suffix, not an alternation.
			return expand(name[:open] + name[end+1:])
		}
		var out []string
		for _, alt := range strings.Split(group, ",") {
			out = append(out, expand(name[:open]+alt+name[end+1:])...)
		}
		return out
	}
	families := make(map[string]bool)
	for _, row := range strings.Split(section, "\n") {
		cols := strings.Split(row, "|")
		if len(cols) < 2 {
			continue
		}
		for _, tok := range strings.Split(cols[1], "`") {
			if strings.HasPrefix(tok, "lruk_") {
				for _, name := range expand(tok) {
					families[name] = true
				}
			}
		}
	}
	return families
}

// TestMetricsCatalog holds /metrics and DESIGN.md §12's catalog table to
// each other, in both directions: boot the daemon with every layer armed
// (durable backend, observability plane, span ring, scrubber, a cluster
// view), scrape it, and require the set of lruk_* families exposed to
// equal the set documented. An undocumented family and a documented family
// nothing registers both fail.
func TestMetricsCatalog(t *testing.T) {
	d := startDaemon(t,
		"-backend", "file", "-data-dir", t.TempDir(),
		"-obs-addr", "127.0.0.1:0",
		"-trace-spans", "256",
		"-scrub-interval", "1s",
		"-node-id", "n0", "-cluster", "n0=127.0.0.1:0",
		"-customers", "40",
		"-frames", "16",
	)
	body := d.fetch("/metrics")
	exposed := make(map[string]bool)
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			exposed[strings.Fields(rest)[0]] = true
		}
	}
	documented := catalogFamilies(t)
	for name := range documented {
		if !exposed[name] {
			t.Errorf("DESIGN.md §12 documents %s, but a fully armed lrukd does not expose it", name)
		}
	}
	for name := range exposed {
		if !documented[name] {
			t.Errorf("/metrics exposes %s, which DESIGN.md §12's catalog does not document", name)
		}
	}
	// One disk attempt per read or write: nothing counts retries.
	for _, family := range []string{"lruk_pool_read_retries_total", "lruk_pool_write_retries_total"} {
		if exposed[family] {
			t.Errorf("/metrics exposes %s, but the pool retries no disk attempt", family)
		}
	}
	// One disk under the pool: one latency series per direction, unlabelled.
	for _, family := range []string{"lruk_disk_read_seconds", "lruk_disk_write_seconds"} {
		if n := strings.Count(body, "\n"+family+"_count"); n != 1 {
			t.Errorf("/metrics carries %d %s series, want 1", n, family)
		}
	}
	d.drain()
}

// TestRunRejectsBadFlags exercises the usage exit path: unknown flags,
// inconsistent cluster flags, and flags that could not take effect.
func TestRunRejectsBadFlags(t *testing.T) {
	// A cancelled context: a case that is wrongly accepted boots, sees the
	// shutdown signal at once, and reports its exit code instead of serving
	// forever.
	reject := func(args []string) (int, string) {
		var stdout, stderr syncBuffer
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		code := run(ctx, append([]string{"-addr", "127.0.0.1:0", "-customers", "10"}, args...), &stdout, &stderr)
		return code, stderr.String()
	}
	for name, args := range map[string][]string{
		"unknown flag":                     {"-no-such-flag"},
		"-cluster without -node-id":        {"-cluster", "n0=127.0.0.1:1"},
		"-node-id outside the spec":        {"-node-id", "ghost", "-cluster", "n0=127.0.0.1:1"},
		"-data-dir without -backend=file":  {"-data-dir", t.TempDir()},
		"-trace-slow without -trace-spans": {"-trace-slow", "1ms"},
		"-max-wal-bytes with -backend=sim": {"-max-wal-bytes", "4096"},
		"-k 0":                             {"-k", "0"},
		"-k -1":                            {"-k", "-1"},
		"-frames 0":                        {"-frames", "0"},
		"-customers 0":                     {"-customers", "0"},
		"-workers -3":                      {"-workers", "-3"},
		"-queue -1":                        {"-queue", "-1"},
	} {
		if code, stderr := reject(args); code != 2 {
			t.Errorf("%s exited %d, want 2; stderr %q", name, code, stderr)
		}
	}
	// Out-of-range values, each armed so that only the range check can
	// refuse it; the message must name the flag.
	file := []string{"-backend=file", "-data-dir", t.TempDir()}
	for _, c := range []struct {
		flag, value string
		with        []string
	}{
		{"trace-spans", "-3", nil},
		{"trace-slow", "-1ms", []string{"-trace-spans", "8"}},
		{"scrub-interval", "-1s", nil},
		{"max-wal-bytes", "-5", file},
		{"drain", "-1s", nil},
		{"max-request-timeout", "-1s", nil},
	} {
		code, stderr := reject(append([]string{"-" + c.flag, c.value}, c.with...))
		if code != 2 || !strings.Contains(stderr, "-"+c.flag+" must be") {
			t.Errorf("-%s %s exited %d, want 2 naming the flag; stderr %q", c.flag, c.value, code, stderr)
		}
	}
}

// TestOptionSurface is a ratchet on the number of independently settable
// values: every field of the stack's config structs and every lrukd flag is
// a configuration the tests and BENCHMARK.json must cover. Adding one means
// editing a number here and saying, in the same change, which two existing
// callers need different values for it. db.Config has no replacer periods
// (db.Open sets the CRP to its correlatedReferencePeriod constant and
// derives the RIP from Frames and K) and no record size (only db's own
// tests shrink it, through an unexported field); one of its 8 fields,
// DiskRetry, is a deprecated declaration nothing reads, kept only for the
// benchmark harness that still sets it. bufferpool.Config has no retry
// posture: the pool makes one disk attempt per read or write, and a failed
// write-back is retried by the next sweep or flush. core.Options holds the
// two §2.1 periods and nothing else: no shard count and no clock, since
// every LRU-K in the repository ticks once per reference.
//
// The replacer's surface is ratcheted the same way, by what its callers
// use. bufferpool.Replacer has 4 methods: admission (RecordAccess) and
// Restore make a page a victim candidate, so the pool never calls
// SetEvictable, and a page leaves only by Evict, since nothing is ever
// deleted. storage.Backend has 7, none of which frees a page and none of
// which names a stripe: each backend keeps its latch striping private, and
// the pool keeps one circuit breaker and one disk histogram per direction
// for the backend it is given. So the pool reads its circuit as one
// BreakerOpen state (there is no BreakerOpenStripes count), and finds a
// repairer by asserting storage.Repairer on its backend; storagetest's
// injectors implement RepairPage by passing it through and have no Inner to
// walk.
// core.PolicyTracer has 1: victim selection is the one
// decision worth a trace record; collapses and purges are PolicyStats
// counters. PolicyStats is the one stats read, so neither replacer has
// Size or HistorySize.
//
// The two clients are ratcheted by what their callers use. *cluster.Client
// has 8 methods and no Flush fan-out: no program flushes a whole cluster,
// and the handoff flushes its two nodes through *client.Client. That
// client has 10, with no switch to turn tracing off: every server decodes
// the trace extension, so nothing has to fall back from it.
//
// The record layers have one form per operation where the benchmark
// harness allows. *db.DB has 19 methods: the update and the scan take a
// context only, and the three lookups (Lookup, LookupCtx, LookupAppendCtx)
// and the two flushes (FlushAll, FlushAllCtx) stay because bench/ calls
// Lookup, LookupCtx and FlushAll. *heapfile.File has 7: no Get or Scan
// without a context, and no Update (FillCtx is the in-place write); Insert
// and GetCtx stay for bench/'s layer probes. *btree.Tree has 8: one lookup
// (GetCtx) and one write path, the Appender, with Insert kept as one
// Append for bench/'s probes, so no general insert comes back unnoticed.
func TestOptionSurface(t *testing.T) {
	for _, c := range []struct {
		cfg  any
		want int
	}{
		{db.Config{}, 8},
		{bufferpool.Config{}, 5},
		{server.Config{}, 10},
		{cluster.Config{}, 1},
		{cluster.RebalanceConfig{}, 4},
		{core.Options{}, 2},
	} {
		// Exported fields only: an unexported field is settable by its own
		// package's tests and nobody else, so it is not a configuration.
		typ, exported := reflect.TypeOf(c.cfg), 0
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				exported++
			}
		}
		if exported != c.want {
			t.Errorf("%v has %d exported fields, want %d", typ, exported, c.want)
		}
	}
	// run builds its flag set internally; -h makes it print one "  -name"
	// usage entry per defined flag.
	var stdout, stderr syncBuffer
	if code := run(context.Background(), []string{"-h"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-h exited %d, want 2", code)
	}
	flags := 0
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(line, "  -") {
			flags++
		}
	}
	if flags != 17 {
		t.Errorf("lrukd defines %d flags, want 17; usage:\n%s", flags, stderr.String())
	}
	for _, c := range []struct {
		iface any
		want  int
	}{
		{(*bufferpool.Replacer)(nil), 4},
		{(*storage.Backend)(nil), 7},
		{(*core.PolicyTracer)(nil), 1},
	} {
		if typ := reflect.TypeOf(c.iface).Elem(); typ.NumMethod() != c.want {
			t.Errorf("%v has %d methods, want %d", typ, typ.NumMethod(), c.want)
		}
	}
	for _, c := range []struct {
		v    any
		want int
	}{
		{&cluster.Client{}, 8},
		{&client.Client{}, 10},
		{&db.DB{}, 19},
		{&heapfile.File{}, 7},
		{&btree.Tree{}, 8},
	} {
		if typ := reflect.TypeOf(c.v); typ.NumMethod() != c.want {
			t.Errorf("%v has %d exported methods, want %d", typ, typ.NumMethod(), c.want)
		}
	}
	for _, repl := range []any{&core.Replacer{}, &core.SyncReplacer{}} {
		for _, name := range []string{"Size", "HistorySize"} {
			if _, ok := reflect.TypeOf(repl).MethodByName(name); ok {
				t.Errorf("%T has %s; PolicyStats is the one stats read", repl, name)
			}
		}
	}
	for _, c := range []struct {
		v         any
		has, lost string
	}{
		{&bufferpool.Pool{}, "BreakerOpen", "BreakerOpenStripes"},
		{storagetest.WithFaults(nil), "RepairPage", "Inner"},
		{&storagetest.Corrupter{}, "RepairPage", "Inner"},
	} {
		typ := reflect.TypeOf(c.v)
		if _, ok := typ.MethodByName(c.has); !ok {
			t.Errorf("%v has no %s", typ, c.has)
		}
		if _, ok := typ.MethodByName(c.lost); ok {
			t.Errorf("%v has %s", typ, c.lost)
		}
	}
}

// lrukdLinks is every module package the daemon links, itself included:
// the 16 that go list -deps ./cmd/lrukd prints. TestLinkedPackages fails
// when one is added or dropped, so each change to what the daemon links is
// deliberate. Test apparatus (storagetest's injectors, the stats
// generators, the Example 1.1 driver) is not among them.
var lrukdLinks = []string{
	"repro/cmd/lrukd",
	"repro/internal/btree",
	"repro/internal/bufferpool",
	"repro/internal/cluster",
	"repro/internal/core",
	"repro/internal/db",
	"repro/internal/heapfile",
	"repro/internal/leakcheck",
	"repro/internal/obs",
	"repro/internal/policy",
	"repro/internal/server",
	"repro/internal/server/client",
	"repro/internal/server/wire",
	"repro/internal/storage",
	"repro/internal/storage/file",
	"repro/internal/storage/sim",
}

// TestLinkedPackages walks lrukd's non-test imports with go/build, from
// this directory through every module package it reaches, and holds the
// result to lrukdLinks. No linked package may import the testing package:
// test support takes an interface instead (leakcheck.T).
func TestLinkedPackages(t *testing.T) {
	const module, root = "repro", "../.."
	seen := map[string]bool{}
	var walk func(path, dir string)
	walk = func(path, dir string) {
		if seen[path] {
			return
		}
		seen[path] = true
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("importing %s: %v", path, err)
		}
		if slices.Contains(pkg.Imports, "testing") {
			t.Errorf("%s imports testing, which lrukd would then link", path)
		}
		for _, imp := range pkg.Imports {
			if rest, ok := strings.CutPrefix(imp, module+"/"); ok {
				walk(imp, filepath.Join(root, rest))
			}
		}
	}
	walk(module+"/cmd/lrukd", ".")
	for p := range seen {
		if !slices.Contains(lrukdLinks, p) {
			t.Errorf("lrukd now links %s: add it to lrukdLinks only if the daemon needs it", p)
		}
	}
	for _, p := range lrukdLinks {
		if !seen[p] {
			t.Errorf("lrukd no longer links %s: drop it from lrukdLinks", p)
		}
	}
}

// TestRunClusterFlags: a node booted with -node-id/-cluster holds the
// bootstrap view (epoch 1), advertises its id on the serving line, and
// refuses keys the ring assigns elsewhere.
func TestRunClusterFlags(t *testing.T) {
	// A 2-node spec in which only n0 runs: n1's keys must come back MOVED.
	d := startDaemon(t,
		"-customers", "300",
		"-frames", "64",
		"-node-id", "n0",
		"-cluster", "n0=127.0.0.1:0,n1=127.0.0.1:1",
	)
	if out := d.stdout.String(); !strings.Contains(out, "node=n0") {
		t.Fatalf("serving line lacks node=n0: %q", out)
	}
	cl := d.dial()
	v, err := cl.ViewGet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Epoch != 1 || len(v.Nodes) != 2 {
		t.Errorf("bootstrap view = %+v, want epoch 1 with 2 nodes", v)
	}
	var sawOwned, sawMoved bool
	for k := int64(0); k < 300 && !(sawOwned && sawMoved); k++ {
		_, err := cl.Get(context.Background(), k)
		switch {
		case err == nil:
			sawOwned = true
		case errors.Is(err, client.ErrMoved):
			sawMoved = true
		default:
			t.Fatalf("get %d: %v", k, err)
		}
	}
	if !sawOwned || !sawMoved {
		t.Errorf("ownership split not observed: owned=%v moved=%v", sawOwned, sawMoved)
	}
	d.drain()
}
