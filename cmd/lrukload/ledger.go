package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/server/client"
	"repro/internal/stats"
)

// This file is the crash-test half of lrukload: the -ledger mode drives an
// updates-only workload while recording, per key, the last fill byte the
// server acknowledged and the one update that was in flight when the
// connection died; the -verify mode replays that ledger against a restarted
// server. Together they pin the durable backend's acknowledgement
// contract: after a kill -9, every key must hold its last acknowledged
// value or the value of its single in-flight update — never anything
// older, and never garbage.
//
// The key space is partitioned by client (client i owns keys ≡ i mod
// clients), so each key's updates are issued serially by one closed-loop
// client and "last acknowledged" is well defined without cross-client
// ordering. A ledger client stops at its first transport error rather than
// reconnecting: the server is presumed mid-crash, and stopping caps the
// uncertainty at one pending update per key.

// ledgerEntry is one key's durability claim. Values are fill bytes
// (0..255); -1 means none.
type ledgerEntry struct {
	// Acked is the fill byte of the last acknowledged update: the server
	// returned OK, so durable mode promises it reached the fsynced WAL.
	Acked int `json:"acked"`
	// Pending is the fill byte of an update whose acknowledgement never
	// arrived (refused, deadline, or in flight at the crash). It may or
	// may not have reached the log.
	Pending int `json:"pending"`
}

// ledgerFile is the JSON document -ledger writes and -verify reads.
type ledgerFile struct {
	Keys    int                   `json:"keys"`
	Entries map[int64]ledgerEntry `json:"entries"`
}

// runLedgerLoad drives the updates-only partitioned workload and writes
// the ledger when the run ends (by duration, signal, or server death).
func runLedgerLoad(ctx context.Context, path string, conn connector, clients int, end time.Time, keys int, seed uint64, reqTimeout time.Duration, stdout, stderr io.Writer) int {
	maps := make([]map[int64]ledgerEntry, clients)
	tallies := make([]tally, clients)
	done := make(chan int, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			maps[i], tallies[i] = driveLedger(ctx, conn, end, keys, clients, i, seed+uint64(i), reqTimeout)
			done <- i
		}(i)
	}
	for i := 0; i < clients; i++ {
		<-done
	}

	led := ledgerFile{Keys: keys, Entries: make(map[int64]ledgerEntry)}
	var acked, pending uint64
	var transport int
	for i, m := range maps {
		for k, e := range m { // partitions are disjoint: no merge conflicts
			led.Entries[k] = e
			if e.Acked >= 0 {
				acked++
			}
			if e.Pending >= 0 {
				pending++
			}
		}
		transport += int(tallies[i].transportN)
	}
	raw, err := json.MarshalIndent(led, "", " ")
	if err != nil {
		fmt.Fprintln(stderr, "lrukload: encoding ledger:", err)
		return 1
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		fmt.Fprintln(stderr, "lrukload: writing ledger:", err)
		return 1
	}
	var ok uint64
	for _, tl := range tallies {
		ok += tl.ok
	}
	fmt.Fprintf(stdout, "lrukload: ledger %s: keys_touched=%d acked_updates=%d keys_with_acks=%d keys_pending=%d transport_errs=%d\n",
		path, len(led.Entries), ok, acked, pending, transport)
	if ok == 0 {
		// Nothing was ever acknowledged: the crash test would verify an
		// empty claim. The server died before the load landed.
		fmt.Fprintln(stderr, "lrukload: no update was acknowledged; ledger is vacuous")
		return 1
	}
	return 0
}

// driveLedger is one ledger client's closed loop over its own key
// partition. Every attempt is recorded as pending before it is sent; an
// acknowledgement promotes it to acked. A typed refusal leaves it pending
// (a deadline can fire after the update applied but before the durable
// flush, so "refused" does not mean "not applied"). A transport error ends
// the client immediately.
func driveLedger(ctx context.Context, conn connector, end time.Time, keys, clients, self int, seed uint64, reqTimeout time.Duration) (map[int64]ledgerEntry, tally) {
	entries := make(map[int64]ledgerEntry)
	tl := newTally()
	owned := (keys - self + clients - 1) / clients // |{k : k ≡ self (mod clients)}|
	if owned == 0 {
		return entries, tl
	}
	rng := stats.NewRNG(seed)
	seq := make(map[int64]int)
	cl, closeCl, err := conn.dial()
	if err != nil {
		tl.recordTransport(err)
		return entries, tl
	}
	defer func() { _ = closeCl() }()
	for time.Now().Before(end) && ctx.Err() == nil {
		key := int64(self + rng.Intn(owned)*clients)
		e, ok := entries[key]
		if !ok {
			e = ledgerEntry{Acked: -1, Pending: -1}
		}
		// An unacknowledged fill is re-sent until it is acknowledged: a new
		// one would leave two updates in doubt (the refused one may have
		// applied) where the ledger can name only one.
		if e.Pending < 0 {
			seq[key]++
			e.Pending = seq[key]%255 + 1 // never 0: 0 is the never-updated filler
			entries[key] = e
		}
		fill := byte(e.Pending)

		rctx, cancel := context.WithTimeout(ctx, reqTimeout)
		began := time.Now()
		err := cl.Update(rctx, key, fill)
		cancel()
		var remote *client.Error
		switch {
		case err == nil:
			e.Acked, e.Pending = int(fill), -1
			entries[key] = e
			tl.ok++
			tl.lat[opUpdate].ObserveSince(began)
		case errors.Is(err, client.ErrBusy):
			tl.busy++
		case errors.Is(err, client.ErrUnavailable):
			tl.unavailable++
		case errors.Is(err, context.DeadlineExceeded):
			tl.deadline++
		case errors.As(err, &remote):
			tl.remote++
		default:
			// Transport means the server (or, through the cluster client,
			// every viable route to the key's owner) is gone. Stop rather
			// than reconnect: the uncertainty stays one pending update per
			// key.
			tl.recordTransport(err)
			return entries, tl
		}
	}
	return entries, tl
}

// runVerify reads the ledger and audits every key of the restarted server:
// each key must carry its last acknowledged fill or its single pending
// one, and keys the ledger never touched must still hold the loader's
// zero filler.
func runVerify(ctx context.Context, path string, conn connector, reqTimeout time.Duration, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "lrukload: reading ledger:", err)
		return 1
	}
	var led ledgerFile
	if err := json.Unmarshal(raw, &led); err != nil {
		fmt.Fprintln(stderr, "lrukload: decoding ledger:", err)
		return 1
	}
	if led.Keys <= 0 {
		fmt.Fprintln(stderr, "lrukload: ledger has no key space")
		return 1
	}
	cl, closeCl, err := conn.dial()
	if err != nil {
		fmt.Fprintln(stderr, "lrukload: verify dial:", err)
		return 1
	}
	defer func() { _ = closeCl() }()

	var ackedChecked, pendingAccepted, mismatches int
	for key := int64(0); key < int64(led.Keys); key++ {
		rctx, cancel := context.WithTimeout(ctx, reqTimeout)
		rec, err := cl.Get(rctx, key)
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "lrukload: verify: get %d: %v\n", key, err)
			mismatches++
			continue
		}
		if len(rec) <= 8 {
			fmt.Fprintf(stderr, "lrukload: verify: key %d: record only %d bytes\n", key, len(rec))
			mismatches++
			continue
		}
		fill := rec[8]
		if !bytes.Equal(rec[8:], bytes.Repeat([]byte{fill}, len(rec)-8)) {
			fmt.Fprintf(stderr, "lrukload: verify: key %d: torn filler (mixed bytes)\n", key)
			mismatches++
			continue
		}
		e, ok := led.Entries[key]
		switch {
		case !ok:
			if fill != 0 {
				fmt.Fprintf(stderr, "lrukload: verify: key %d holds %#x, never updated\n", key, fill)
				mismatches++
			}
		case e.Acked >= 0:
			// The durable promise: never older than the last ack.
			switch int(fill) {
			case e.Acked:
				ackedChecked++
			case e.Pending:
				pendingAccepted++
			default:
				fmt.Fprintf(stderr, "lrukload: verify: key %d holds %#x, want acked %#x or pending %#x\n",
					key, fill, e.Acked, e.Pending)
				mismatches++
			}
		default: // pending only: the one update may or may not have landed
			if int(fill) != e.Pending && fill != 0 {
				fmt.Fprintf(stderr, "lrukload: verify: key %d holds %#x, want pending %#x or untouched 0\n",
					key, fill, e.Pending)
				mismatches++
			}
		}
	}
	fmt.Fprintf(stdout, "lrukload: verify %s: keys=%d acked_confirmed=%d pending_accepted=%d mismatches=%d\n",
		path, led.Keys, ackedChecked, pendingAccepted, mismatches)
	if mismatches > 0 {
		fmt.Fprintln(stderr, "lrukload: verification FAILED: acknowledged updates were lost or corrupted")
		return 1
	}
	fmt.Fprintln(stdout, "lrukload: verification passed: every acknowledged update survived")
	return 0
}
