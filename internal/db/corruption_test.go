package db

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/file"
)

// durableCorrupter keeps the file store's DurableBackend face over the
// corruption injector, so Open still sees a durable backend.
type durableCorrupter struct {
	*storage.Corrupter
	durable storage.DurableBackend
}

func (b durableCorrupter) Recovery() storage.RecoveryInfo { return b.durable.Recovery() }

// TestDBCorruptionEndToEnd drives the full stack — durable file store,
// corruption injection, pool read-repair, scrubber, trace ring, /metrics —
// through a corrupted workload and asserts the layers agree: the injection
// ledger conserves, every detection resolves, each resolution left one
// corrupt trace record, and the exposed metrics match the snapshot.
func TestDBCorruptionEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	store, err := file.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	corrupter := storage.WithCorruption(store)
	database, err := Open(Config{
		Backend:           durableCorrupter{corrupter, store},
		Frames:            16,
		K:                 2,
		Obs:               reg,
		evictionTraceSize: 1 << 20,
	})
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

	// Arm a steady corruption rate and churn updates through flushes until
	// injection has demonstrably happened (the plan is seeded, but which
	// write-back trips it depends on pool state; the loop makes the test
	// deterministic in outcome).
	corrupter.SetCorruption(storage.NewCorruptPlan(3, storage.CorruptRule{Probability: 0.25}))
	rng := stats.NewRNG(99)
	for i := 0; i < 200 && corrupter.CorruptStats().Injected == 0; i++ {
		id := int64(rng.Intn(200))
		if err := database.UpdateCustomerCtx(context.Background(), id, byte(i)); err != nil && !storage.IsCorrupt(err) {
			t.Fatalf("update %d: %v", id, err)
		}
		if err := database.FlushAll(); err != nil {
			t.Fatalf("flush %d: %v", i, err)
		}
	}
	corrupter.SetCorruption(nil)
	if corrupter.CorruptStats().Injected == 0 {
		t.Fatal("corruption plan never fired across 200 flushed updates")
	}

	// A full scrub sweep detects any remaining taint; every taint here is
	// repairable (the simulated damage sits over an intact slot), so the
	// stack must heal everything and quarantine nothing.
	database.ScrubSweep(context.Background(), 4096)
	for i := 0; i < 200; i++ {
		if _, err := database.Lookup(int64(i)); err != nil {
			t.Fatalf("post-heal lookup %d: %v", i, err)
		}
	}

	snap := database.StatsSnapshot()
	cs := corrupter.CorruptStats()
	if cs.Injected != cs.Cleared+uint64(cs.Tainted) {
		t.Errorf("injection ledger broken: %+v", cs)
	}
	if cs.Tainted != 0 {
		t.Errorf("%d taints survived repair and scrubbing", cs.Tainted)
	}
	if snap.Pool.CorruptDetected == 0 {
		t.Error("no detection despite confirmed injection")
	}
	if snap.Pool.CorruptDetected != snap.Pool.CorruptRepaired+snap.Pool.CorruptQuarantined {
		t.Errorf("detections unresolved: %+v", snap.Pool)
	}
	if snap.Pool.CorruptQuarantined != 0 || snap.PoisonedPages != 0 {
		t.Errorf("repairable damage was quarantined: %+v poisoned=%d", snap.Pool, snap.PoisonedPages)
	}

	// Each detection's fate was recorded into the trace ring by the
	// corruption hook, tagged with its kind and outcome.
	var corruptRecs, repairedRecs uint64
	for _, rec := range database.EvictionTrace() {
		if rec.Kind != obs.TraceCorrupt {
			continue
		}
		corruptRecs++
		if rec.KDist == 1 {
			repairedRecs++
		}
		if k := storage.CorruptKind(rec.Clock); k != storage.CorruptChecksum {
			t.Errorf("trace record carries kind %v, plan injects checksum only", k)
		}
	}
	if corruptRecs != snap.Pool.CorruptDetected {
		t.Errorf("trace holds %d corrupt records, pool detected %d", corruptRecs, snap.Pool.CorruptDetected)
	}
	if repairedRecs != snap.Pool.CorruptRepaired {
		t.Errorf("trace marks %d repaired, pool repaired %d", repairedRecs, snap.Pool.CorruptRepaired)
	}

	// /metrics agrees, and the durable store's WAL gauge is exposed.
	srv := httptest.NewServer(obs.Handler(reg))
	defer srv.Close()
	vals := scrape(t, srv)
	for name, want := range map[string]float64{
		"lruk_corrupt_detected_total": float64(snap.Pool.CorruptDetected),
		"lruk_repair_success_total":   float64(snap.Pool.CorruptRepaired),
		"lruk_repair_failed_total":    0,
		"lruk_pool_poisoned_pages":    0,
	} {
		if got, ok := vals[name]; !ok || got != want {
			t.Errorf("/metrics %s = %v (present=%v), want %v", name, got, ok, want)
		}
	}
	if _, ok := vals["lruk_disk_wal_bytes"]; !ok {
		t.Error("/metrics missing lruk_disk_wal_bytes on a durable backend")
	}
}
