package cluster

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/server/client"
	"repro/internal/server/wire"
)

// This file is the rebalance coordinator: the admin-plane driver that
// moves key state between nodes when the membership changes, ordered so
// that no acknowledged update is ever lost (DESIGN.md §16).
//
// The phase ordering, global across the cluster:
//
//	(1) ViewSet(new) then Flush on EVERY source (node shedding keys).
//	    From the flip a source answers MOVED for every moved key, so it
//	    cannot acknowledge an update the copy would miss; the flush
//	    barrier drains requests already in flight past the ownership
//	    check, so everything the source ever acknowledged is in its
//	    store and durable.
//	(2) Copy: RangeRead windows of each source's key state, keep the
//	    entries whose owner changes, RangeWrite them to their new
//	    owners. Destinations still hold the old view — they answer MOVED
//	    for the moved keys too — so the copy cannot race a client write.
//	(3) Flush each destination: the copied state is durable before any
//	    client is told to read it.
//	(4) ViewSet(new) on the remaining nodes; destinations start serving.
//
// Step (2)'s safety leans on sources and destinations being disjoint,
// which holds for the operations the cluster performs — a single join
// (old nodes shed only to the new node) or a single removal (only the
// removed node sheds). Rebalance verifies the disjointness against the
// actual key population and refuses composite view changes; decompose
// them into single steps.
//
// Between (1) and (4) a moved key is briefly unavailable — every replica
// bounces it with MOVED — but never inconsistent; the cluster client's
// bounce backoff rides the window out. A coordinator crash before (4)
// leaves moved keys bouncing (unavailable, not lost); rerunning the same
// rebalance completes it. A crash *during* (4) is the one window where a
// rerun must not re-copy — a flipped destination may have accepted fresh
// writes — so finish with ViewSet alone instead of rerunning.

// RebalanceConfig tunes a Rebalance run.
type RebalanceConfig struct {
	// Keys is the customer key population: keys are scanned in [0, Keys).
	Keys int64
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)

	// batchSize caps entries per RangeRead/RangeWrite request, at most
	// wire.MaxRangeEntries. Zero selects 2048. Only this package's tests
	// set it (export_test.go), to force several copy windows.
	batchSize int
}

func (c RebalanceConfig) withDefaults() RebalanceConfig {
	if c.batchSize <= 0 {
		c.batchSize = 2048
	}
	return c
}

func (c RebalanceConfig) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// rebalancePhases names the coordinator's phases in execution order; a
// phase span's annot is the index into this sequence.
var rebalancePhases = [...]string{"flip_sources", "copy", "flush_dests", "flip_rest"}

// RebalancePhaseName maps a rebalance_phase span's annot index back to the
// phase name; out-of-range indices report "unknown".
func RebalancePhaseName(idx int) string {
	if idx < 0 || idx >= len(rebalancePhases) {
		return "unknown"
	}
	return rebalancePhases[idx]
}

// Rebalance drives the handoff from oldView to newView. Every node in
// oldView must be reachable (a node being *removed* hands its keys off,
// so it must be alive for the transfer); newView must be strictly newer.
//
// Under a sampled trace on ctx, every admin request of the run carries it
// on the wire: each node records the ViewSet/Flush/RangeWrite it served as
// request spans of this one trace, so `lrukcluster trace` reassembles the
// whole handoff across the cluster. When the coordinator adopted the
// trace, each phase also leaves a rebalance_phase span beneath it (annot =
// the index into the flip_sources/copy/flush_dests/flip_rest sequence),
// the phase's one timing.
func Rebalance(ctx context.Context, oldView, newView wire.View, cfg RebalanceConfig) error {
	cfg = cfg.withDefaults()
	if cfg.Keys <= 0 {
		return fmt.Errorf("cluster: rebalance needs a positive key population, got %d", cfg.Keys)
	}
	if newView.Epoch <= oldView.Epoch {
		return fmt.Errorf("cluster: rebalance target epoch %d not newer than current %d",
			newView.Epoch, oldView.Epoch)
	}
	if len(newView.Nodes) == 0 {
		return fmt.Errorf("cluster: rebalance target view is empty")
	}

	oldRing, newRing := NewRing(oldView), NewRing(newView)

	// Classify the population: which nodes shed keys, which receive.
	// Copy safety requires the two sets to be disjoint (see file doc).
	sources := make(map[string]bool)
	dests := make(map[string]bool)
	for k := int64(0); k < cfg.Keys; k++ {
		was, is := oldRing.Owner(k), newRing.Owner(k)
		if was != is {
			sources[was] = true
			dests[is] = true
		}
	}
	for id := range sources {
		if dests[id] {
			return fmt.Errorf("cluster: rebalance: node %s both sheds and receives keys; "+
				"decompose the view change into single join/remove steps", id)
		}
	}

	// One admin connection per node, addresses from the union of views
	// (newView wins on conflict — it is where traffic is headed).
	addrs := make(map[string]string)
	for _, n := range oldView.Nodes {
		addrs[n.ID] = n.Addr
	}
	for _, n := range newView.Nodes {
		addrs[n.ID] = n.Addr
	}
	conns := make(map[string]*client.Client)
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	conn := func(id string) (*client.Client, error) {
		if c, ok := conns[id]; ok {
			return c, nil
		}
		c, err := client.Dial(addrs[id])
		if err != nil {
			return nil, fmt.Errorf("cluster: rebalance: node %s: %w", id, err)
		}
		conns[id] = c
		return c, nil
	}

	tc := obs.TraceFrom(ctx)

	// (1) Flip and drain every source before any copying starts.
	phaseStart := time.Now()
	for _, n := range oldView.Nodes {
		if !sources[n.ID] {
			continue
		}
		src, err := conn(n.ID)
		if err != nil {
			return err
		}
		if _, err := src.ViewSet(ctx, newView); err != nil {
			return fmt.Errorf("cluster: rebalance: view set on source %s: %w", n.ID, err)
		}
		if err := src.Flush(ctx); err != nil {
			return fmt.Errorf("cluster: rebalance: flush source %s: %w", n.ID, err)
		}
	}
	tc.Emit(obs.SpanRebalancePhase, phaseStart, time.Since(phaseStart), 0)

	// (2) Copy each source's moved keys to their new owners.
	phaseStart = time.Now()
	for _, n := range oldView.Nodes {
		if !sources[n.ID] {
			continue
		}
		if err := copySource(ctx, n.ID, oldRing, newRing, conn, cfg); err != nil {
			return err
		}
	}
	tc.Emit(obs.SpanRebalancePhase, phaseStart, time.Since(phaseStart), 1)

	// (3) Durability on the receiving side before anyone reads from it.
	phaseStart = time.Now()
	for _, n := range newView.Nodes {
		if !dests[n.ID] {
			continue
		}
		dst, err := conn(n.ID)
		if err != nil {
			return err
		}
		if err := dst.Flush(ctx); err != nil {
			return fmt.Errorf("cluster: rebalance: flush destination %s: %w", n.ID, err)
		}
	}
	tc.Emit(obs.SpanRebalancePhase, phaseStart, time.Since(phaseStart), 2)

	// (4) Final flip: everyone not already on the new view adopts it.
	phaseStart = time.Now()
	for _, n := range newView.Nodes {
		if sources[n.ID] {
			continue
		}
		c, err := conn(n.ID)
		if err != nil {
			return err
		}
		epoch, err := c.ViewSet(ctx, newView)
		if err != nil {
			return fmt.Errorf("cluster: rebalance: final view set on %s: %w", n.ID, err)
		}
		cfg.logf("rebalance: node %s now at epoch %d", n.ID, epoch)
	}
	tc.Emit(obs.SpanRebalancePhase, phaseStart, time.Since(phaseStart), 3)
	return nil
}

// copySource ships one drained source's moved keys, windowed and batched.
func copySource(ctx context.Context, srcID string, oldRing, newRing *Ring,
	conn func(string) (*client.Client, error), cfg RebalanceConfig) error {
	src, err := conn(srcID)
	if err != nil {
		return err
	}
	batches := make(map[string][]wire.RangeEntry)
	shipped := 0
	destN := make(map[string]bool)
	ship := func(destID string) error {
		batch := batches[destID]
		if len(batch) == 0 {
			return nil
		}
		dst, err := conn(destID)
		if err != nil {
			return err
		}
		applied, err := dst.RangeWrite(ctx, batch)
		if err != nil {
			return fmt.Errorf("cluster: rebalance: range write %s -> %s: %w", srcID, destID, err)
		}
		if applied != uint64(len(batch)) {
			return fmt.Errorf("cluster: rebalance: %s applied %d of %d entries", destID, applied, len(batch))
		}
		shipped += len(batch)
		destN[destID] = true
		batches[destID] = batch[:0]
		return nil
	}
	for lo := int64(0); lo < cfg.Keys; lo += int64(cfg.batchSize) {
		hi := lo + int64(cfg.batchSize)
		if hi > cfg.Keys {
			hi = cfg.Keys
		}
		entries, err := src.RangeRead(ctx, lo, hi)
		if err != nil {
			return fmt.Errorf("cluster: rebalance: range read %s [%d,%d): %w", srcID, lo, hi, err)
		}
		for _, e := range entries {
			if oldRing.Owner(e.Key) != srcID {
				continue // not this source's key; its own source ships it
			}
			destID := newRing.Owner(e.Key)
			if destID == srcID {
				continue // stays put
			}
			batches[destID] = append(batches[destID], e)
			if len(batches[destID]) >= cfg.batchSize {
				if err := ship(destID); err != nil {
					return err
				}
			}
		}
	}
	for destID := range batches {
		if err := ship(destID); err != nil {
			return err
		}
	}
	cfg.logf("rebalance: source %s shipped %d keys to %d destinations", srcID, shipped, len(destN))
	return nil
}
