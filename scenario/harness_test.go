// Package scenario is the repository's process-level test bed: every test
// boots real lrukd daemons, loads them with lrukload, breaks them (SIGKILL,
// bit-rot, membership change) and ends in finish, which holds every
// scenario to the same invariant list (DESIGN.md §7). It has no non-test
// files; `go test -run <name> -v ./scenario/` is the runner.
package scenario

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/server/client"
	"repro/internal/server/wire"
	"repro/internal/storage/file"
)

// bin is the directory TestMain built lrukd, lrukload and lrukcluster into.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "lruk-scenario-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenario:", err)
		os.Exit(1)
	}
	args := []string{"build"}
	if raceEnabled {
		// A race-built test binary gets race-detecting daemons: a report
		// exits the daemon non-zero and prints DATA RACE, both of which
		// finish refuses.
		args = append(args, "-race")
	}
	args = append(args, "-o", dir+string(filepath.Separator),
		"repro/cmd/lrukd", "repro/cmd/lrukload", "repro/cmd/lrukcluster")
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "scenario: go %s: %v\n%s", strings.Join(args, " "), err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	bin = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// wait bounds every readiness, exit and STATS poll; generous because the
// scenarios share two cores with each other and, under -race, with
// instrumented daemons.
const wait = 60 * time.Second

// syncBuffer collects a child's output while the test reads it.
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

// node is one lrukd process and everything needed to boot it again.
type node struct {
	id      string // "" when standalone
	addr    string // reserved before boot: the cluster spec names it
	obs     string // this boot's -obs-addr listener, read from its log
	dataDir string // "" on the sim backend
	log     syncBuffer
	from    int // offset in log where the current boot's output begins
	cmd     *exec.Cmd
	exited  chan error // cmd.Wait's result; cmd is nil while not running
}

// boot is the part of the log the current (or last) process wrote.
func (n *node) boot() string { return n.log.String()[n.from:] }

// scenario is a set of nodes plus what finish must check about them.
type scenario struct {
	t     *testing.T
	ctx   context.Context // cancelled at cleanup: kills every child still running
	dir   string
	keys  string   // customer population = load key space
	flags []string // lrukd flags every boot of every node gets
	spec  string   // bootstrap cluster spec; "" for a standalone node
	nodes []*node
	// members and epoch track the membership view as rebalances edit it.
	members []*node
	epoch   int
	// ledger is the last recorded ledger; finish verifies it against the
	// final topology. traces are ids finish reassembles cluster-wide.
	ledger string
	loads  int
	traces []string
}

// nextPort hands out listen ports from below the kernel's ephemeral range
// (32768 up): the loads' client sockets linger there in TIME_WAIT, and a
// port must stay bindable between its reservation and the daemon's bind,
// and again between a SIGKILL and the restart on the same spec. Each test
// process starts at its own random offset, so two runs at once rarely
// probe the same ports.
var nextPort atomic.Uint32

var portBase = rand.Uint32()

func reserve(t *testing.T) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		port := 20000 + (portBase+nextPort.Add(1))%12000
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err == nil {
			ln.Close()
			return ln.Addr().String()
		}
	}
	t.Fatal("no free port below the ephemeral range")
	return ""
}

// start boots n lrukd processes — one standalone node, or an n-node cluster
// bootstrapped from a shared spec — on the sim or file backend and returns
// once every /healthz answers 200. flags are passed to every boot.
func start(t *testing.T, n int, backend string, customers int, flags ...string) *scenario {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := &scenario{t: t, ctx: ctx, dir: t.TempDir(), keys: strconv.Itoa(customers), flags: flags, epoch: 1}
	t.Cleanup(func() {
		cancel()
		for _, n := range s.nodes {
			if n.cmd != nil {
				<-n.exited
			}
			if t.Failed() {
				t.Logf("--- node %q log:\n%s", n.id, n.log.String())
			}
		}
	})
	for attempt := 0; ; attempt++ {
		s.nodes = nil
		var spec []string
		for i := 0; i < n; i++ {
			nd := &node{addr: reserve(t)}
			if n > 1 {
				nd.id = fmt.Sprintf("n%d", i)
				spec = append(spec, nd.id+"="+nd.addr)
			}
			if backend == "file" {
				nd.dataDir = filepath.Join(s.dir, fmt.Sprintf("data%d-%d", attempt, i))
			}
			s.nodes = append(s.nodes, nd)
		}
		s.spec = strings.Join(spec, ",")
		var err error
		for _, nd := range s.nodes {
			s.launch(nd)
		}
		for _, nd := range s.nodes {
			if e := s.ready(nd); e != nil && err == nil {
				err = e
			}
		}
		if err == nil {
			break
		}
		// Another process can take a reserved port before lrukd binds it;
		// one retry on fresh ports, then it is a failure like any other.
		if attempt > 0 || !strings.Contains(err.Error(), "address already in use") {
			t.Fatal(err)
		}
		for _, nd := range s.nodes {
			if nd.cmd != nil {
				s.kill(nd, syscall.SIGKILL)
			}
		}
	}
	s.members = append([]*node(nil), s.nodes...)
	return s
}

// launch starts n's process; ready waits for it.
func (s *scenario) launch(n *node, extra ...string) {
	s.t.Helper()
	args := []string{"-addr", n.addr, "-obs-addr", "127.0.0.1:0", "-customers", s.keys}
	if n.dataDir != "" {
		args = append(args, "-backend=file", "-data-dir", n.dataDir)
	}
	if n.id != "" {
		args = append(args, "-node-id", n.id, "-cluster", s.spec)
	}
	args = append(append(args, s.flags...), extra...)
	n.from, n.obs = len(n.log.String()), ""
	n.cmd = exec.CommandContext(s.ctx, filepath.Join(bin, "lrukd"), args...)
	n.cmd.Stdout, n.cmd.Stderr = &n.log, &n.log
	if err := n.cmd.Start(); err != nil {
		s.t.Fatal(err)
	}
	n.exited = make(chan error, 1)
	go func(cmd *exec.Cmd, exited chan error) { exited <- cmd.Wait() }(n.cmd, n.exited)
}

// ready polls n's /healthz until it answers 200 as the node it should be.
// The log is read only to learn where -obs-addr 127.0.0.1:0 landed.
func (s *scenario) ready(n *node) error {
	for deadline := time.Now().Add(wait); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		select {
		case err := <-n.exited:
			n.cmd = nil
			return fmt.Errorf("node %q died during startup (%v):\n%s", n.id, err, n.boot())
		default:
		}
		if n.obs == "" {
			if _, rest, ok := strings.Cut(n.boot(), "lrukd: observability on "); ok && strings.Contains(rest, "\n") {
				n.obs = strings.Fields(rest)[0]
			}
			continue
		}
		if code, body := httpGet("http://" + n.obs + "/healthz"); code == http.StatusOK {
			if !strings.Contains(body, `"serving":true`) || (n.id != "" && !strings.Contains(body, `"node":"`+n.id+`"`)) {
				return fmt.Errorf("node %q: /healthz 200 with body %s", n.id, body)
			}
			if n.id != "" && !strings.Contains(n.boot(), "node="+n.id) {
				return fmt.Errorf("node %q: serving line lacks its node id:\n%s", n.id, n.boot())
			}
			return nil
		}
	}
	return fmt.Errorf("node %q never turned /healthz ready:\n%s", n.id, n.boot())
}

// httpGet returns the status and body of a GET, or status 0 when the
// request itself failed (nothing listening, or a daemon too wedged to answer).
func httpGet(url string) (int, string) {
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Get(url)
	if err != nil {
		return 0, ""
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body) // a truncated body fails the caller's Contains
	return resp.StatusCode, string(body)
}

// kill signals n and waits for the process to be gone, returning its exit
// error (nil = exit 0).
func (s *scenario) kill(n *node, sig syscall.Signal) error {
	s.t.Helper()
	if err := n.cmd.Process.Signal(sig); err != nil && !errors.Is(err, os.ErrProcessDone) {
		s.t.Fatalf("signalling node %q: %v", n.id, err)
	}
	select {
	case err := <-n.exited:
		n.cmd = nil
		return err
	case <-time.After(wait):
		s.t.Fatalf("node %q still running %v after %v", n.id, wait, sig)
		return nil
	}
}

// stop is the graceful half: SIGTERM must end in exit 0 — lrukd's own
// drain and goroutine-leak checks passed — with the clean-shutdown line,
// and /healthz must stop answering 200.
func (s *scenario) stop(n *node) {
	s.t.Helper()
	if err := s.kill(n, syscall.SIGTERM); err != nil {
		s.t.Errorf("node %q: SIGTERM ended in %v, want exit 0", n.id, err)
	}
	if !strings.Contains(n.boot(), "lrukd: clean shutdown") {
		s.t.Errorf("node %q exited without declaring a clean shutdown", n.id)
	}
	if code, _ := httpGet("http://" + n.obs + "/healthz"); code == http.StatusOK {
		s.t.Errorf("node %q: /healthz still answers 200 after shutdown", n.id)
	}
}

// restart boots a killed node again on its own address, spec and data dir;
// extra flags apply to this boot only. A durable node must report recovery.
func (s *scenario) restart(n *node, extra ...string) {
	s.t.Helper()
	s.launch(n, extra...)
	if err := s.ready(n); err != nil {
		s.t.Fatal(err)
	}
	if n.dataDir != "" && !strings.Contains(n.boot(), "lrukd: recovered ") {
		s.t.Fatalf("node %q reopened %s without reporting a recovery:\n%s", n.id, n.dataDir, n.boot())
	}
}

// corrupt flips one byte in k WAL-covered pages of n's stopped store.
func (s *scenario) corrupt(n *node, k int) {
	s.t.Helper()
	pages, err := file.CorruptPages(n.dataDir, k, 11)
	if err != nil || len(pages) != k {
		s.t.Fatalf("corrupting %d pages of node %q: damaged %v, err %v", k, n.id, pages, err)
	}
}

// updates is how many UPDATEs the node has answered since it booted.
func updates(r wire.StatsReply) uint64 {
	return r.Obs[`lruk_server_request_seconds{op="update"}`].Count
}

// stats is one STATS round trip.
func (s *scenario) stats(n *node) wire.StatsReply {
	s.t.Helper()
	var r wire.StatsReply
	s.await(n, "a STATS reply", func(got wire.StatsReply) bool { r = got; return true })
	return r
}

// await polls n's STATS op until cond holds: how a scenario times a fault
// against the load's progress instead of against the clock.
func (s *scenario) await(n *node, what string, cond func(wire.StatsReply) bool) {
	s.t.Helper()
	cl, err := client.Dial(n.addr)
	if err != nil {
		s.t.Fatalf("node %q: %v", n.id, err)
	}
	defer cl.Close()
	for deadline := time.Now().Add(wait); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		r, err := cl.Stats(s.ctx)
		if err != nil {
			s.t.Fatalf("node %q: STATS: %v", n.id, err)
		}
		if cond(r) {
			return
		}
	}
	s.t.Fatalf("node %q never reached %s", n.id, what)
}

// tool runs one of the built commands to completion.
func (s *scenario) tool(name string, args ...string) (string, error) {
	out, err := exec.CommandContext(s.ctx, filepath.Join(bin, name), args...).CombinedOutput()
	return string(out), err
}

// target is how lrukload reaches the system: the standalone node's address,
// or the current membership through the ring-aware client.
func (s *scenario) target() []string {
	if s.spec == "" {
		return []string{"-addr", s.nodes[0].addr, "-keys", s.keys}
	}
	return []string{"-cluster", specOf(s.members, func(n *node) string { return n.addr }), "-keys", s.keys}
}

func specOf(nodes []*node, addr func(*node) string) string {
	var parts []string
	for _, n := range nodes {
		parts = append(parts, n.id+"="+addr(n))
	}
	return strings.Join(parts, ",")
}

var (
	slowestTrace   = regexp.MustCompile(`lrukload: slowest trace=([0-9a-f]{16}) `)
	rebalanceTrace = regexp.MustCompile(`lrukcluster: rebalance trace=([0-9a-f]{16})`)
)

// startLoad runs lrukload in the background; the returned func waits for
// it, requires exit 0 and returns its output. A traced run's slowest trace
// id is recorded for finish.
func (s *scenario) startLoad(args ...string) func() string {
	s.t.Helper()
	var out syncBuffer
	cmd := exec.CommandContext(s.ctx, filepath.Join(bin, "lrukload"), append(s.target(), args...)...)
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		s.t.Fatal(err)
	}
	return func() string {
		s.t.Helper()
		if err := cmd.Wait(); err != nil {
			s.t.Fatalf("lrukload %v: %v\n%s", args, err, out.String())
		}
		if m := slowestTrace.FindStringSubmatch(out.String()); m != nil {
			s.traces = append(s.traces, m[1])
		}
		return out.String()
	}
}

func (s *scenario) load(args ...string) string {
	s.t.Helper()
	return s.startLoad(args...)()
}

// startLedgerLoad is the crash-test load: updates only, every acknowledged
// fill recorded in a fresh ledger that finish (and verify) hold the system
// to. The long default duration means "until a node is killed".
func (s *scenario) startLedgerLoad(args ...string) func() string {
	s.t.Helper()
	s.loads++
	s.ledger = filepath.Join(s.dir, fmt.Sprintf("ledger%d.json", s.loads))
	return s.startLoad(append([]string{"-ledger", s.ledger, "-clients", "4", "-duration", "30s"}, args...)...)
}

// verify audits every key against the ledger through the current topology.
func (s *scenario) verify() {
	s.t.Helper()
	out, err := s.tool("lrukload", append(s.target(), "-ledger", s.ledger, "-verify")...)
	if err != nil || !strings.Contains(out, "verification passed") {
		s.t.Fatalf("ledger %s does not verify (%v):\n%s", s.ledger, err, out)
	}
}

// cluster runs an lrukcluster membership subcommand against the current
// members and requires exit 0.
func (s *scenario) cluster(sub string, args ...string) string {
	s.t.Helper()
	spec := specOf(s.members, func(n *node) string { return n.addr })
	out, err := s.tool("lrukcluster", append([]string{sub, "-cluster", spec}, args...)...)
	if err != nil {
		s.t.Fatalf("lrukcluster %s %v: %v\n%s", sub, args, err, out)
	}
	return out
}

// rebalance hands n's keys to the other members with `lrukcluster remove`
// and checks the epoch moved by exactly one on the survivors. n keeps
// running (shedding) until the scenario stops it.
func (s *scenario) rebalance(n *node) string {
	s.t.Helper()
	if view := s.cluster("view"); !strings.Contains(view, fmt.Sprintf("epoch=%d ", s.epoch)) {
		s.t.Fatalf("view before removing %s lacks epoch=%d:\n%s", n.id, s.epoch, view)
	}
	out := s.cluster("remove", "-node", n.id)
	if !strings.Contains(out, "remove complete") {
		s.t.Fatalf("remove %s printed no completion line:\n%s", n.id, out)
	}
	if m := rebalanceTrace.FindStringSubmatch(out); m != nil && s.traced() {
		s.traces = append(s.traces, m[1])
	}
	s.members = slices.DeleteFunc(slices.Clone(s.members), func(m *node) bool { return m == n })
	s.epoch++
	if view := s.cluster("view"); !strings.Contains(view, fmt.Sprintf("epoch=%d ", s.epoch)) {
		s.t.Fatalf("view after removing %s lacks epoch=%d:\n%s", n.id, s.epoch, view)
	}
	return out
}

func (s *scenario) traced() bool { return slices.Contains(s.flags, "-trace-spans") }

// trace reassembles one trace from every running node's /spans ring with
// `lrukcluster trace`, requires a non-empty, properly nested tree, and
// returns the waterfall and its summary line.
func (s *scenario) trace(id string) (out, summary string) {
	s.t.Helper()
	var up []*node
	for _, n := range s.nodes {
		if n.cmd != nil {
			up = append(up, n)
		}
	}
	out, err := s.tool("lrukcluster", "trace", "-obs", specOf(up, func(n *node) string { return n.obs }), id)
	if err != nil {
		s.t.Fatalf("lrukcluster trace %s: %v\n%s", id, err, out)
	}
	_, summary, _ = strings.Cut(out, "lrukcluster: trace "+id+" ")
	summary = strings.TrimSpace(summary)
	if summary == "" || strings.HasPrefix(summary, "spans=0 ") || !strings.HasSuffix(summary, " nest_violations=0") {
		s.t.Fatalf("trace %s did not reassemble cleanly: %q\n%s", id, summary, out)
	}
	return out, summary
}

// metric reads one unlabelled sample from a /metrics body.
func metric(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// finish holds the scenario to every invariant, whatever it set out to
// break: the ledger verifies through the final topology; recorded traces
// reassemble; on each running node the integrity families are exposed and
// reconcile (every detected corruption was repaired, none quarantined: no
// scenario yet damages a page the WAL cannot cover); each running node drains
// on SIGTERM; and no log of any boot shows a panic, a runtime fatal or a
// race report. A failure dumps every node's log (see start's cleanup).
func (s *scenario) finish() {
	s.t.Helper()
	if s.ledger != "" {
		s.verify()
	}
	for _, id := range s.traces {
		s.trace(id)
	}
	for _, n := range s.nodes {
		if n.cmd == nil {
			continue
		}
		code, body := httpGet("http://" + n.obs + "/metrics")
		if code != http.StatusOK {
			s.t.Errorf("node %q: /metrics answered %d", n.id, code)
		}
		sample := func(family string) float64 {
			v, ok := metric(body, family)
			if !ok {
				s.t.Errorf("node %q: /metrics lacks %s", n.id, family)
			}
			return v
		}
		sample("lruk_scrub_pages_total")
		if n.dataDir != "" {
			sample("lruk_disk_wal_bytes")
		}
		detected, repaired, failed := sample("lruk_corrupt_detected_total"),
			sample("lruk_repair_success_total"), sample("lruk_repair_failed_total")
		if detected != repaired+failed || failed != 0 {
			s.t.Errorf("node %q: corrupt_detected=%v repair_success=%v repair_failed=%v", n.id, detected, repaired, failed)
		}
		s.stop(n)
	}
	for _, n := range s.nodes {
		for _, bad := range []string{"panic:", "fatal error:", "DATA RACE"} {
			if strings.Contains(n.log.String(), bad) {
				s.t.Errorf("node %q log contains %q", n.id, bad)
			}
		}
	}
}
