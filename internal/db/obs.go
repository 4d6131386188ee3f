package db

import (
	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/storage"
)

// This file is the observability assembly point: it is the only place that
// knows both the storage stack's internals and the obs registry, so the
// dependency arrows stay clean (core/storage/bufferpool never import each
// other's metrics, and core does not import obs at all — it talks through
// the PolicyTracer interface adapted below).
//
// Two registration styles, chosen per metric:
//
//   - Histograms are created up front and handed into the pool, which
//     records into them on the hot path — the disk latency ones at its I/O
//     gate (nil histograms disable the timing entirely).
//   - Counters and gauges that already exist as atomics inside the stack
//     (pool counters, the backend ledger, replacer stats) are exposed
//     through CounterFunc/GaugeFunc collectors evaluated at scrape time —
//     zero added cost on the paths that maintain them.

// newPoolMetrics registers the pool's latency/shape histograms, and the
// disk read/write latency histograms its I/O gate records into. The disk
// families keep the lruk_disk_ prefix for dashboard continuity across
// backends.
func newPoolMetrics(r *obs.Registry) bufferpool.Metrics {
	return bufferpool.Metrics{
		FetchLatency: r.LatencyHistogram("lruk_pool_fetch_seconds",
			"Buffer pool fetch latency, hits and misses alike.", nil),
		MissLatency: r.LatencyHistogram("lruk_pool_miss_seconds",
			"Latency of fetches that ran the miss protocol (frame obtention plus disk read).", nil),
		CoalesceWait: r.LatencyHistogram("lruk_pool_coalesce_wait_seconds",
			"Time coalesced fetches spent parked on another fetch's in-flight read.", nil),
		SweepLength: r.Histogram("lruk_pool_sweep_victims",
			"Victims examined per eviction sweep that consulted the replacer.", nil),
		DiskReadLatency: r.LatencyHistogram("lruk_disk_read_seconds",
			"Storage read latency (latch waits, WAL appends, and injected delay included).", nil),
		DiskWriteLatency: r.LatencyHistogram("lruk_disk_write_seconds",
			"Storage write latency (latch waits, WAL appends, and injected delay included).", nil),
	}
}

// policyTraceAdapter bridges core.PolicyTracer onto the obs trace ring.
// Collapses and purges are not traced: lruk_policy_collapses_total and
// lruk_policy_purges_total count them, and as records they would push the
// evictions out of the ring.
type policyTraceAdapter struct {
	trace *obs.EvictionTrace
}

func (a policyTraceAdapter) TraceEvict(p policy.PageID, clock, kdist policy.Tick, infinite bool) {
	kd := int64(kdist)
	if infinite {
		kd = obs.KDistInfinite
	}
	a.trace.Record(obs.TraceRecord{Kind: obs.TraceEvict, Page: int64(p), Clock: int64(clock), KDist: kd})
}

// registerObs installs the scrape-time collectors over every counter the
// database already maintains. Each collector re-reads its source at
// exposition, so /metrics and StatsSnapshot always agree (both are views
// of the same atomics).
func (db *DB) registerObs(r *obs.Registry) {
	pool := func(name, help string, read func(bufferpool.Stats) uint64) {
		r.CounterFunc(name, help, nil, func() float64 { return float64(read(db.pool.Stats())) })
	}
	pool("lruk_pool_hits_total", "Buffer pool page hits.",
		func(s bufferpool.Stats) uint64 { return s.Hits })
	pool("lruk_pool_misses_total", "Buffer pool page misses (coalesced and failed fetches included).",
		func(s bufferpool.Stats) uint64 { return s.Misses })
	pool("lruk_pool_coalesced_total", "Misses that joined another fetch's in-flight disk read.",
		func(s bufferpool.Stats) uint64 { return s.Coalesced })
	pool("lruk_pool_evictions_total", "Pages evicted from the pool.",
		func(s bufferpool.Stats) uint64 { return s.Evictions })
	pool("lruk_pool_write_backs_total", "Dirty pages written back to disk.",
		func(s bufferpool.Stats) uint64 { return s.WriteBacks })
	pool("lruk_pool_read_errors_total", "Miss reads that failed on the disk.",
		func(s bufferpool.Stats) uint64 { return s.ReadErrors })
	pool("lruk_pool_write_errors_total", "Dirty write-backs that failed on the disk.",
		func(s bufferpool.Stats) uint64 { return s.WriteErrors })
	pool("lruk_pool_reads_rejected_total", "Reads refused locally by an open circuit breaker.",
		func(s bufferpool.Stats) uint64 { return s.ReadsRejected })
	pool("lruk_pool_writes_rejected_total", "Write-backs refused locally by an open circuit breaker.",
		func(s bufferpool.Stats) uint64 { return s.WritesRejected })
	pool("lruk_pool_breaker_trips_total", "Disk circuit-breaker openings.",
		func(s bufferpool.Stats) uint64 { return s.BreakerTrips })
	r.GaugeFunc("lruk_pool_hit_ratio", "Hits / (hits + misses).", nil,
		func() float64 { return db.pool.Stats().HitRatio() })
	r.GaugeFunc("lruk_pool_quarantined", "Resident pages awaiting a write-back retry.", nil,
		func() float64 { return float64(db.pool.Quarantined()) })
	r.GaugeFunc("lruk_pool_breaker_open", "1 while the disk circuit breaker is open, else 0.", nil,
		func() float64 {
			if db.pool.BreakerOpen() {
				return 1
			}
			return 0
		})
	r.GaugeFunc("lruk_pool_frames", "Pool capacity in frames.", nil,
		func() float64 { return float64(db.pool.NumFrames()) })
	pool("lruk_corrupt_detected_total", "Corrupt page reads detected (client fetches and scrub sweeps).",
		func(s bufferpool.Stats) uint64 { return s.CorruptDetected })
	pool("lruk_repair_success_total", "Detected corruptions healed by read-repair.",
		func(s bufferpool.Stats) uint64 { return s.CorruptRepaired })
	pool("lruk_repair_failed_total", "Detected corruptions quarantined as unrepairable.",
		func(s bufferpool.Stats) uint64 { return s.CorruptQuarantined })
	pool("lruk_scrub_pages_total", "Pages verified clean by the background scrubber.",
		func(s bufferpool.Stats) uint64 { return s.ScrubPages })
	pool("lruk_scrub_corrupt_total", "Corruptions first detected by a scrub sweep.",
		func(s bufferpool.Stats) uint64 { return s.ScrubCorrupt })
	r.GaugeFunc("lruk_pool_poisoned_pages", "Page ids quarantined as unrepairable-corrupt.", nil,
		func() float64 { return float64(len(db.pool.PoisonedPages())) })

	dsk := func(name, help string, read func(storage.Stats) float64) {
		r.CounterFunc(name, help, nil, func() float64 { return read(db.backend.Stats()) })
	}
	dsk("lruk_disk_reads_total", "Successful storage page reads.",
		func(s storage.Stats) float64 { return float64(s.Reads) })
	dsk("lruk_disk_writes_total", "Successful storage page writes.",
		func(s storage.Stats) float64 { return float64(s.Writes) })
	dsk("lruk_disk_allocated_total", "Pages allocated.",
		func(s storage.Stats) float64 { return float64(s.Allocated) })
	dsk("lruk_disk_service_micros_total", "Total simulated service time, microseconds.",
		func(s storage.Stats) float64 { return float64(s.ServiceMicros) })
	if db.durable != nil {
		r.GaugeFunc("lruk_disk_wal_bytes", "Bytes appended to the write-ahead log since the last checkpoint.", nil,
			func() float64 { return float64(db.backend.Stats().WALBytes) })
	}

	pol := func(name, help string, read func(core.PolicyStats) float64) {
		r.CounterFunc(name, help, nil, func() float64 { return read(db.replacer.PolicyStats()) })
	}
	pol("lruk_policy_evictions_total", "LRU-K victim selections.",
		func(s core.PolicyStats) float64 { return float64(s.Evictions) })
	pol("lruk_policy_collapses_total", "References absorbed by the Correlated Reference Period.",
		func(s core.PolicyStats) float64 { return float64(s.Collapses) })
	pol("lruk_policy_purges_total", "History blocks dropped by the retention demon.",
		func(s core.PolicyStats) float64 { return float64(s.Purges) })
	r.GaugeFunc("lruk_policy_history_blocks", "HIST blocks held, resident plus retained.", nil,
		func() float64 { return float64(db.replacer.PolicyStats().HistoryBlocks) })

	bat := func(name, help string, read func(core.BatchStats) uint64) {
		r.CounterFunc(name, help, nil, func() float64 { return float64(read(db.replacer.BatchStats())) })
	}
	bat("lruk_access_batch_drains_total", "Replacer event-ring drains triggered by a full ring.",
		func(s core.BatchStats) uint64 { return s.Drains })
	bat("lruk_access_batch_flushes_total", "Forced event-ring drains (eviction searches, stats reads).",
		func(s core.BatchStats) uint64 { return s.Flushes })
	bat("lruk_access_batch_events_total", "Buffered policy events applied to the replacer.",
		func(s core.BatchStats) uint64 { return s.Events })
	bat("lruk_access_batch_dropped_total", "Stale buffered hits discarded at drain (page left residency).",
		func(s core.BatchStats) uint64 { return s.Dropped })
	depth := r.Histogram("lruk_access_batch_drain_events",
		"Events applied per event-ring drain.", nil)
	latency := r.LatencyHistogram("lruk_access_batch_drain_seconds",
		"Time spent applying one event-ring drain to the replacer.", nil)
	db.replacer.SetDrainObserver(func(events int, nanos int64) {
		depth.Observe(int64(events))
		latency.Observe(nanos)
	})

}

// EvictionTrace returns the retained victim selection and corruption
// records, oldest first (nil when Config.Obs was not set). Exposed over the
// observability HTTP endpoint as /trace.
func (db *DB) EvictionTrace() []obs.TraceRecord {
	return db.evTrace.Snapshot()
}
