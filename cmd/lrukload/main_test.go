package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/wire"
)

// startService boots an in-process database and page server for the load
// generator to hit, and returns its address. A non-nil registry arms the
// full observability stack on both.
func startService(t *testing.T, customers int, reg *obs.Registry) string {
	t.Helper()
	database, err := db.Open(db.Config{Frames: 128, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { database.Close() })
	if err := database.LoadCustomers(customers); err != nil {
		t.Fatal(err)
	}
	srv := server.New(database, server.Config{Addr: "127.0.0.1:0", Obs: reg})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr().String()
}

// TestRunAgainstLiveServer drives a short mixed load and checks the
// summary: exit 0, every op accounted for, and a hit ratio high enough to
// clear the gate (the key space fits in the pool, so the ratio is high).
func TestRunAgainstLiveServer(t *testing.T) {
	leakcheck.Check(t)
	addr := startService(t, 500, nil)

	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-addr", addr,
		"-clients", "4",
		"-duration", "300ms",
		"-keys", "500",
		"-min-hit-ratio", "0.01",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"lrukload: ops=", "transport_err=0", "hit_ratio="} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "ops=0 ") {
		t.Fatalf("no operations completed:\n%s", out)
	}
}

// TestRunShowsServerSummaries: against an instrumented service, the final
// report carries both latency tables — client-observed per op and the
// server's own histogram digests from the STATS reply.
func TestRunShowsServerSummaries(t *testing.T) {
	leakcheck.Check(t)
	addr := startService(t, 300, obs.NewRegistry())

	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-addr", addr,
		"-clients", "2",
		"-duration", "200ms",
		"-keys", "300",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"client_ms", "server_ms", "lrukload:   get", "lrukload:   total", "lrukload:   queue", "lrukload:   fetch"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestRunHitRatioGateFails proves the -min-hit-ratio gate actually gates:
// an impossible threshold must turn an otherwise clean run into exit 1.
func TestRunHitRatioGateFails(t *testing.T) {
	leakcheck.Check(t)
	addr := startService(t, 200, nil)

	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-addr", addr,
		"-clients", "2",
		"-duration", "100ms",
		"-keys", "200",
		"-min-hit-ratio", "1.1", // unreachable: ratios live in [0, 1]
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("unreachable gate exited %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "below required") {
		t.Errorf("gate failure not reported: %q", stderr.String())
	}
}

// TestRunUnreachableServer: nothing listening means every client records a
// transport error and the run fails.
func TestRunUnreachableServer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-addr", "127.0.0.1:1", // nothing listens here
		"-clients", "1",
		"-duration", "50ms",
		"-keys", "10",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("unreachable server exited %d, want 1", code)
	}
}

// TestRunRejectsBadFlags exercises the usage exit paths: every value that
// could not mean what it says is refused before anything is dialled.
func TestRunRejectsBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown flag":              {"-no-such-flag"},
		"zero op mix":               {"-get", "0", "-update", "0", "-scan", "0"},
		"-max-skew without cluster": {"-max-skew", "2"},
		"-get -5":                   {"-get", "-5"},
		"-update -1":                {"-update", "-1"},
		"-scan -1":                  {"-scan", "-1"},
		"-trace-sample 3":           {"-trace-sample", "3"},
		"-trace-sample -0.5":        {"-trace-sample", "-0.5"},
		"-max-skew -1":              {"-cluster", "n0=127.0.0.1:1", "-max-skew", "-1"},
		"-min-hit-ratio -0.1":       {"-min-hit-ratio", "-0.1"},
		"-corrupt-pages is gone":    {"-corrupt-pages", "3", "-data-dir", t.TempDir()},
	} {
		var stdout, stderr bytes.Buffer
		// Nothing listens on the default address: a case wrongly accepted
		// fails with 1, not 2.
		if code := run(context.Background(), append([]string{"-duration", "20ms", "-clients", "1"}, args...), &stdout, &stderr); code != 2 {
			t.Errorf("%s exited %d, want 2; stderr %q", name, code, stderr.String())
		}
	}
}

// refusingCaller refuses every update with BUSY and remembers, per key, the
// fills it was sent.
type refusingCaller struct{ fills map[int64][]byte }

func (c *refusingCaller) Get(context.Context, int64) ([]byte, error) { return nil, nil }
func (c *refusingCaller) Scan(context.Context) (int, error)          { return 0, nil }
func (c *refusingCaller) Update(_ context.Context, key int64, fill byte) error {
	c.fills[key] = append(c.fills[key], fill)
	return client.ErrBusy
}

// TestLedgerResendsUnacknowledgedFill: a refused update may have applied,
// so the ledger client must keep offering that same fill until it is
// acknowledged — a fresh fill would put two values in doubt for a key
// whose entry can name only one pending.
func TestLedgerResendsUnacknowledgedFill(t *testing.T) {
	fake := &refusingCaller{fills: make(map[int64][]byte)}
	conn := connector{dial: func() (caller, func() error, error) { return fake, func() error { return nil }, nil }}
	entries, _ := driveLedger(context.Background(), conn, time.Now().Add(20*time.Millisecond), 4, 1, 0, 1, time.Second)
	if len(fake.fills) == 0 {
		t.Fatal("no update was attempted")
	}
	for key, fills := range fake.fills {
		for _, f := range fills {
			if f != fills[0] {
				t.Fatalf("key %d was offered fills %v: a new fill before the first was acknowledged", key, fills)
			}
		}
		if e := entries[key]; e.Acked != -1 || e.Pending != int(fills[0]) {
			t.Errorf("key %d ledger entry %+v, want acked -1 pending %d", key, e, fills[0])
		}
	}
}

// TestRunClusterMode drives a 3-node in-process cluster through the
// ring-aware client: exit 0 under the skew and hit-ratio gates, and the
// summary carries the per-node delta table plus the skew line.
func TestRunClusterMode(t *testing.T) {
	leakcheck.Check(t)
	const customers = 600
	specParts := make([]string, 3)
	view := wire.View{Epoch: 1}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("n%d", i)
		database, err := db.Open(db.Config{Frames: 128})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { database.Close() })
		if err := database.LoadCustomers(customers); err != nil {
			t.Fatal(err)
		}
		srv := server.New(database, server.Config{Addr: "127.0.0.1:0", NodeID: id})
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addr := srv.Addr().String()
		specParts[i] = id + "=" + addr
		view.Nodes = append(view.Nodes, wire.NodeAddr{ID: id, Addr: addr})
	}
	ctx := context.Background()
	for _, n := range view.Nodes {
		cl, err := client.Dial(n.Addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.ViewSet(ctx, view); err != nil {
			t.Fatal(err)
		}
		cl.Close()
	}

	var stdout, stderr bytes.Buffer
	code := run(ctx, []string{
		"-cluster", strings.Join(specParts, ","),
		"-clients", "4",
		"-duration", "400ms",
		"-keys", fmt.Sprint(customers),
		"-max-skew", "3.0",
		"-min-hit-ratio", "0.01",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("cluster run exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"lrukload: node", "lrukload:   n0", "lrukload:   n1", "lrukload:   n2", "lrukload: skew="} {
		if !strings.Contains(out, want) {
			t.Errorf("cluster summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "transport_err=") && !strings.Contains(out, "transport_err=0") {
		t.Errorf("clean cluster run reported transport errors:\n%s", out)
	}
}
