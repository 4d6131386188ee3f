package db

import (
	"bufio"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/workload"
)

// scrape fetches /metrics over HTTP and parses every sample line into a
// map keyed `name` or `name{labels}`.
func scrape(t *testing.T, srv *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, perr := strconv.ParseFloat(line[idx+1:], 64)
		if perr != nil {
			t.Fatalf("malformed value in %q: %v", line, perr)
		}
		out[line[:idx]] = v
	}
	return out
}

// TestObsMetricsReconcileWithSnapshot runs a deterministic workload with the
// full observability stack armed, then asserts the /metrics exposition and
// db.StatsSnapshot agree exactly: both are views of the same atomics, so
// any divergence is a wiring bug.
func TestObsMetricsReconcileWithSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	database, err := Open(Config{
		Frames:            16,
		K:                 2,
		Obs:               reg,
		evictionTraceSize: 1 << 20, // retain everything; kind counts must reconcile
	})
	if err != nil {
		t.Fatal(err)
	}
	defer database.Close()

	if err := database.LoadCustomers(200); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(42)
	for i := 0; i < 500; i++ {
		id := int64(rng.Intn(200))
		if _, err := database.Lookup(id); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if err := database.UpdateCustomerCtx(context.Background(), id, byte(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := database.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// A snapshot read drains the replacer's event ring, so the scrape and
	// the snapshot compared with it both see a quiescent replacer.
	database.StatsSnapshot()
	srv := httptest.NewServer(obs.Handler(reg))
	defer srv.Close()
	vals := scrape(t, srv)
	snap := database.StatsSnapshot()
	breakerOpen := 0.0
	if snap.BreakerOpen {
		breakerOpen = 1
	}

	for name, want := range map[string]float64{
		"lruk_pool_hits_total":            float64(snap.Pool.Hits),
		"lruk_pool_misses_total":          float64(snap.Pool.Misses),
		"lruk_pool_coalesced_total":       float64(snap.Pool.Coalesced),
		"lruk_pool_evictions_total":       float64(snap.Pool.Evictions),
		"lruk_pool_write_backs_total":     float64(snap.Pool.WriteBacks),
		"lruk_pool_read_errors_total":     float64(snap.Pool.ReadErrors),
		"lruk_pool_write_errors_total":    float64(snap.Pool.WriteErrors),
		"lruk_pool_breaker_trips_total":   float64(snap.Pool.BreakerTrips),
		"lruk_pool_quarantined":           float64(snap.Quarantined),
		"lruk_pool_breaker_open":          breakerOpen,
		"lruk_pool_hit_ratio":             snap.PoolHitRatio,
		"lruk_disk_reads_total":           float64(snap.Disk.Reads),
		"lruk_disk_writes_total":          float64(snap.Disk.Writes),
		"lruk_disk_allocated_total":       float64(snap.Disk.Allocated),
		"lruk_disk_service_micros_total":  float64(snap.Disk.ServiceMicros),
		"lruk_policy_evictions_total":     float64(snap.Policy.Evictions),
		"lruk_policy_collapses_total":     float64(snap.Policy.Collapses),
		"lruk_policy_purges_total":        float64(snap.Policy.Purges),
		"lruk_policy_history_blocks":      float64(snap.Policy.HistoryBlocks),
		"lruk_access_batch_drains_total":  float64(snap.AccessBatch.Drains),
		"lruk_access_batch_events_total":  float64(snap.AccessBatch.Events),
		"lruk_access_batch_dropped_total": float64(snap.AccessBatch.Dropped),
		"lruk_corrupt_detected_total":     float64(snap.Pool.CorruptDetected),
		"lruk_repair_success_total":       float64(snap.Pool.CorruptRepaired),
		"lruk_repair_failed_total":        float64(snap.Pool.CorruptQuarantined),
		"lruk_scrub_pages_total":          float64(snap.Pool.ScrubPages),
		"lruk_scrub_corrupt_total":        float64(snap.Pool.ScrubCorrupt),
		"lruk_pool_poisoned_pages":        float64(snap.PoisonedPages),
		// Every FetchCtx records exactly one observation; NewPage counts a
		// miss per allocation without running the fetch path, hence the
		// subtraction of the pages it allocated: all but the heap pages,
		// which the load allocates without a frame or a miss.
		"lruk_pool_fetch_seconds_count": float64(snap.Pool.Hits + snap.Pool.Misses - (snap.Disk.Allocated - uint64(snap.DataPages))),
	} {
		got, ok := vals[name]
		if !ok {
			t.Errorf("/metrics missing %s", name)
			continue
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, /metrics disagrees with StatsSnapshot %v", name, got, want)
		}
	}

	// The workload must actually have exercised the interesting paths, or
	// the equalities above are vacuous.
	if snap.Pool.Hits == 0 || snap.Pool.Misses == 0 || snap.Pool.Evictions == 0 {
		t.Fatalf("workload too tame: %+v", snap.Pool)
	}
	if snap.Policy.Collapses == 0 {
		t.Fatal("expected CRP collapses from the update read-modify-write pairs")
	}
	if snap.Policy.Purges == 0 {
		t.Fatal("expected RIP purges with RetainedInformationPeriod=100")
	}
	if snap.AccessBatch.Events == 0 {
		t.Fatalf("no buffered policy events drained: %+v", snap.AccessBatch)
	}
	// Every policy collector and snapshot read is itself a forced flush, so
	// Flushes only grows between the scrape and the snapshot after it.
	if got := vals["lruk_access_batch_flushes_total"]; got == 0 || got > float64(snap.AccessBatch.Flushes) {
		t.Errorf("lruk_access_batch_flushes_total = %v, snapshot taken later says %d", got, snap.AccessBatch.Flushes)
	}
	if got := vals["lruk_access_batch_drain_events_count"]; got == 0 {
		t.Error("drain depth histogram recorded nothing")
	}
	if got, want := vals["lruk_access_batch_drain_seconds_count"], vals["lruk_access_batch_drain_events_count"]; got != want {
		t.Errorf("drain latency histogram holds %v observations, drain depth %v", got, want)
	}

	// The disk histograms must count the disk ledger: every read and write
	// attempt the pool's gate admitted was timed, and with no faults every
	// attempt succeeded.
	checkDiskHistograms(t, vals, snap.Disk.Reads, snap.Disk.Writes)

	// Eviction trace: nothing dropped (huge ring) and no corruption, so the
	// ring holds exactly one evict record per victim selection and nothing
	// else.
	trace := database.EvictionTrace()
	kinds := map[obs.TraceKind]uint64{}
	var lastSeq uint64
	for _, rec := range trace {
		if rec.Seq <= lastSeq {
			t.Fatalf("trace sequence not strictly increasing at %+v", rec)
		}
		lastSeq = rec.Seq
		kinds[rec.Kind]++
	}
	if kinds[obs.TraceEvict] != snap.Policy.Evictions || uint64(len(trace)) != snap.Policy.Evictions {
		t.Errorf("trace holds %d records, %d of them evictions; policy counted %d evictions",
			len(trace), kinds[obs.TraceEvict], snap.Policy.Evictions)
	}
	// Every evict record must carry a plausible K-distance: infinite, or
	// positive and no larger than the clock at the decision.
	for _, rec := range trace {
		if rec.Kind != obs.TraceEvict {
			continue
		}
		if rec.KDist != obs.KDistInfinite && (rec.KDist <= 0 || rec.KDist > rec.Clock) {
			t.Fatalf("implausible K-distance in trace record %+v", rec)
		}
	}
}

// checkDiskHistograms asserts that the lruk_disk_read_seconds and
// lruk_disk_write_seconds observation counts equal the disk ledger's reads
// and writes, and that the workload made both.
func checkDiskHistograms(t *testing.T, vals map[string]float64, reads, writes uint64) {
	t.Helper()
	readObs, writeObs := vals["lruk_disk_read_seconds_count"], vals["lruk_disk_write_seconds_count"]
	if reads == 0 || writes == 0 {
		t.Fatalf("workload made %d disk reads and %d writes; both must be positive", reads, writes)
	}
	if readObs != float64(reads) {
		t.Errorf("disk read histogram counts %v, ledger says %d", readObs, reads)
	}
	if writeObs != float64(writes) {
		t.Errorf("disk write histogram counts %v, ledger says %d", writeObs, writes)
	}
}

// TestDiskHistogramsCountScrubReads: the background scrubber reads through
// the pool's I/O gate like a miss does, so with ScrubInterval set its reads
// land in the read histogram and the counts still equal the disk ledger.
func TestDiskHistogramsCountScrubReads(t *testing.T) {
	reg := obs.NewRegistry()
	database, err := Open(Config{Frames: 16, Obs: reg, ScrubInterval: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer database.Close()
	if err := database.LoadCustomers(200); err != nil {
		t.Fatal(err)
	}
	if err := database.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); database.StatsSnapshot().Pool.ScrubPages < 200; {
		if time.Now().After(deadline) {
			t.Fatalf("scrubber verified only %d pages in 10s", database.StatsSnapshot().Pool.ScrubPages)
		}
		time.Sleep(time.Millisecond)
	}
	// Close stops the scrubber, so the scrape and the ledger read after it
	// see the same reads.
	if err := database.Close(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(obs.Handler(reg))
	defer srv.Close()
	vals := scrape(t, srv)
	disk, pool := database.backend.Stats(), database.pool.Stats()
	if pool.ScrubPages == 0 || disk.Reads < pool.ScrubPages {
		t.Fatalf("disk reads %d, scrub pages %d: the scrub reads are not on the ledger", disk.Reads, pool.ScrubPages)
	}
	checkDiskHistograms(t, vals, disk.Reads, disk.Writes)
}

// TestObsDisabledByDefault asserts an un-instrumented database records
// nothing and exposes no trace — the zero-cost default path.
func TestObsDisabledByDefault(t *testing.T) {
	database, err := Open(Config{Frames: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer database.Close()
	if err := database.LoadCustomers(10); err != nil {
		t.Fatal(err)
	}
	if _, err := database.Lookup(3); err != nil {
		t.Fatal(err)
	}
	if tr := database.EvictionTrace(); tr != nil {
		t.Fatalf("eviction trace must be nil without Config.Obs, got %d records", len(tr))
	}
}

// TestEvictionTraceHoldsEvictionsOnly runs the §4.1 two-pool mix through an
// Obs-instrumented database with the default trace ring. Both §2.1 periods
// are live, so the replacer collapses correlated pairs and purges retained
// history many times over; those are counters, and the full ring must
// still hold victim selections alone, so /trace keeps answering why each
// recent page was evicted.
func TestEvictionTraceHoldsEvictionsOnly(t *testing.T) {
	const customers, ops = 4000, 60000
	database, err := Open(Config{Frames: 100, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer database.Close()
	if err := database.LoadCustomers(customers); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(28)
	pages := workload.NewTwoPool(100, customers/2-100, 28)
	for i := 0; i < ops; i++ {
		id := 2*int64(pages.Next()) + int64(rng.Intn(2))
		if rng.Float64() < 0.1 {
			err = database.UpdateCustomerCtx(context.Background(), id, byte(i))
		} else {
			_, err = database.Lookup(id)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	st := database.StatsSnapshot().Policy
	if st.Evictions < evictionTraceDefault || st.Collapses == 0 || st.Purges == 0 {
		t.Fatalf("workload did not fill the ring with evictions while collapsing and purging: %+v", st)
	}
	trace := database.EvictionTrace()
	kinds := map[obs.TraceKind]int{}
	for _, rec := range trace {
		kinds[rec.Kind]++
	}
	if len(trace) != evictionTraceDefault || kinds[obs.TraceEvict] != len(trace) {
		t.Errorf("ring holds %d records, %d of them evictions (by kind: %v); want all %d evictions",
			len(trace), kinds[obs.TraceEvict], kinds, evictionTraceDefault)
	}
}
