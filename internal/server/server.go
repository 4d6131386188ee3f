// Package server puts the db layer behind a TCP socket: the network page
// service of a disaggregated buffer deployment, where many remote clients
// hammer one shared LRU-K pool. The wire format lives in wire; this
// package is the part that makes it production-shaped rather than an echo
// loop:
//
//   - Admission control: a request runs inline on its connection's
//     goroutine once it holds one of a fixed number of execution slots; a
//     bounded number may wait for one, and an arrival beyond that is shed
//     immediately with StatusBusy — the reply costs no database work, so an
//     overloaded server stays responsive instead of building an unbounded
//     backlog.
//   - Deadline propagation: each request's time budget becomes a deadline
//     context charged to every db operation, so the pool's coalesced-waiter
//     abandonment and retry budgets (DESIGN.md §10) are exercised by real
//     remote deadlines.
//   - Typed failure mapping: an open disk circuit breaker surfaces as
//     StatusUnavailable, expired deadlines as StatusDeadline, a draining
//     server as StatusShutdown — clients can tell "back off" from "retry
//     elsewhere" from "give up".
//   - Connection hygiene: per-frame read deadlines, write deadlines, and a
//     max-frame guard bound what one peer can cost.
//   - Graceful drain: Close stops accepting, lets in-flight requests
//     complete up to a deadline, then hard-closes stragglers; lifecycle
//     tests hold it to zero leaked goroutines via internal/leakcheck.
//
// See DESIGN.md §11 for the full state machine.
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufferpool"
	"repro/internal/cluster"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/server/wire"
	"repro/internal/storage"
)

// Config tunes the service.
type Config struct {
	// Addr is the TCP listen address; ":0" forms pick a free port
	// (read it back from Addr() after Start).
	Addr string
	// Workers is the number of execution slots — the hard bound on
	// concurrent database operations. Zero selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds how many requests may wait for a slot beyond the
	// Workers that hold one; a request arriving with that many already
	// waiting is shed with StatusBusy. Zero selects 4x Workers.
	QueueDepth int
	// Obs, when non-nil, registers the server's metric families into this
	// registry: per-opcode request latency, admission queue wait and depth,
	// accepted/shed/status counters. The same registry's histogram
	// summaries ride on every STATS reply. Nil leaves the request path
	// uninstrumented.
	Obs *obs.Registry
	// NodeID is this server's identity in a cluster membership view.
	// Required when View is set (or when a view is installed later over
	// the wire); empty means the node never checks ownership.
	NodeID string
	// View is the initial membership view. With a view installed, GET and
	// UPDATE requests for keys the consistent-hash ring assigns to another
	// node are refused with StatusMoved naming the owner; admin-plane ops
	// (view, range, stats, flush, scan) are never ownership-checked. Nil
	// boots the node standalone — a view can still arrive via VIEW_SET.
	View *wire.View
	// Spans, when non-nil, arms request tracing: the server adopts each
	// sampled request's trace into this recorder, so the request span, its
	// queue-wait child and every pool, disk and WAL span beneath (the
	// adopted trace is threaded through the database layers) land here,
	// and op-latency exemplars carry their trace ids. It is the node's one
	// recorder. Nil keeps the request path free of tracing work beyond a
	// flag check.
	Spans *obs.SpanRecorder
	// SlowThreshold arms tail rescue for requests the client did not
	// sample: one at least this slow gets its request and queue-wait spans
	// emitted after the fact, as a failed or shed one always does. Zero
	// rescues failures and sheds only. Only consulted when Spans is set.
	SlowThreshold time.Duration

	// drainTimeout bounds Close's graceful phase: how long in-flight
	// connections get to finish their current request before being
	// hard-closed. It has one production value; the field exists so this
	// package's tests can shorten it. Zero selects drainWindow.
	drainTimeout time.Duration
}

const (
	// maxRequestTimeout caps the per-request time budget; it also applies
	// to requests that declare none, so no operation runs unbounded.
	maxRequestTimeout = 30 * time.Second
	// drainWindow is Close's graceful window.
	drainWindow = 5 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.drainTimeout <= 0 {
		c.drainTimeout = drainWindow
	}
	return c
}

// Server is the network page service over one DB.
type Server struct {
	cfg Config
	db  *db.DB

	ln   net.Listener
	done chan struct{} // closed when drain begins

	// slots holds one token per running database operation (capacity
	// Workers); waiters counts the requests blocked for a token, bounded by
	// QueueDepth. Together they are the admission queue.
	slots   chan struct{}
	waiters atomic.Int64

	mu    sync.Mutex // guards conns and the closed handshake below
	conns map[*conn]struct{}

	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup

	closed   atomic.Bool
	closeMu  sync.Mutex
	closeErr error

	// flushGate is the handoff's drain (cluster/handoff.go): UPDATE and
	// RANGE_WRITE hold it shared, UPDATE from before its ownership check to
	// its last write, and FLUSH holds it exclusively. A FLUSH therefore
	// returns only after every write already past the ownership check has
	// applied, and a write that waited behind it checks ownership against
	// the view in force once it ends. Page bytes need no gate: the pool's
	// frame latch keeps each flushed image whole.
	flushGate sync.RWMutex

	connsAccepted atomic.Uint64
	requests      atomic.Uint64
	shed          atomic.Uint64
	statusCounts  [wire.NumStatuses]atomic.Uint64

	// viewState is the node's current membership view plus the ring built
	// from it; nil until a view is installed. Swapped atomically by
	// VIEW_SET so the hot path reads it without a lock.
	viewState atomic.Pointer[ringView]
	// rangeKeysOut / rangeKeysIn count keys streamed by handoff range ops.
	rangeKeysOut atomic.Uint64
	rangeKeysIn  atomic.Uint64

	// reg is the optional metrics registry; opLatency (indexed by wire.Op)
	// and queueWait are nil without it, disabling their timings.
	reg       *obs.Registry
	opLatency [wire.NumOps + 1]*obs.Histogram
	queueWait *obs.Histogram
}

// ringView pairs a membership view with the ring derived from it.
type ringView struct {
	view wire.View
	ring *cluster.Ring
}

// New returns an unstarted server over database.
func New(database *db.DB, cfg Config) *Server {
	s := &Server{
		cfg:   cfg.withDefaults(),
		db:    database,
		conns: make(map[*conn]struct{}),
		done:  make(chan struct{}),
	}
	s.slots = make(chan struct{}, s.cfg.Workers)
	if v := s.cfg.View; v != nil {
		s.viewState.Store(&ringView{view: *v, ring: cluster.NewRing(*v)})
	}
	if r := s.cfg.Obs; r != nil {
		s.registerObs(r)
	}
	return s
}

// registerObs installs the server's metric families: latency histograms the
// request path records into, and scrape-time collectors over the counters
// the server maintains anyway.
func (s *Server) registerObs(r *obs.Registry) {
	s.reg = r
	for op := wire.OpGet; int(op) <= wire.NumOps; op++ {
		s.opLatency[op] = r.LatencyHistogram("lruk_server_request_seconds",
			"Request execution latency by opcode (database work only; queue wait excluded).",
			obs.Labels{"op": strings.ToLower(op.String())})
	}
	s.queueWait = r.LatencyHistogram("lruk_server_queue_wait_seconds",
		"Time admitted requests waited for an execution slot (about zero when one was free).", nil)
	r.GaugeFunc("lruk_server_queue_depth", "Requests waiting for an execution slot right now.", nil,
		func() float64 { return float64(s.waiters.Load()) })
	r.CounterFunc("lruk_server_conns_total", "Connections accepted.", nil,
		func() float64 { return float64(s.connsAccepted.Load()) })
	r.CounterFunc("lruk_server_requests_total", "Well-framed requests read.", nil,
		func() float64 { return float64(s.requests.Load()) })
	r.CounterFunc("lruk_server_shed_total", "Requests shed at admission with StatusBusy.", nil,
		func() float64 { return float64(s.shed.Load()) })
	for i := range s.statusCounts {
		st := wire.Status(i)
		idx := i
		r.CounterFunc("lruk_server_responses_total", "Responses sent, by status.",
			obs.Labels{"status": st.String()},
			func() float64 { return float64(s.statusCounts[idx].Load()) })
	}
}

// Start binds the listener and launches the accept loop.
func (s *Server) Start() error {
	if s.ln != nil {
		return errors.New("server: already started")
	}
	if s.viewState.Load() != nil && s.cfg.NodeID == "" {
		return errors.New("server: a membership view requires a NodeID")
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	s.acceptWG.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close drains and stops the server: stop accepting, nudge idle
// connections off their reads, let in-flight requests finish within
// drainTimeout (5 s), then hard-close whatever remains. Requests waiting for a
// slot are answered StatusShutdown. It is idempotent and does not close the
// database.
func (s *Server) Close() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed.Load() {
		return s.closeErr
	}
	if s.ln == nil {
		s.closed.Store(true)
		return nil
	}
	s.closed.Store(true)
	close(s.done)
	err := s.ln.Close()
	if errors.Is(err, net.ErrClosed) {
		err = nil
	}

	// Wake every handler blocked waiting for a next frame; handlers mid-
	// request keep running and deliver their response first.
	s.mu.Lock()
	for cn := range s.conns {
		_ = cn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(s.cfg.drainTimeout):
		// Graceful window over: sever the stragglers and cancel their
		// requests, so each stops at its next context check (a scan
		// between pages, a fetch before its read) instead of running out
		// its budget. A disk call already under way finishes first.
		s.mu.Lock()
		for cn := range s.conns {
			cn.ctx.cancel()
			_ = cn.Close()
		}
		s.mu.Unlock()
		<-drained
	}

	s.acceptWG.Wait()
	s.closeErr = err
	return err
}

// Stats snapshots the server's own counters.
func (s *Server) Stats() wire.ServerStats {
	st := wire.ServerStats{
		Conns:    s.connsAccepted.Load(),
		Requests: s.requests.Load(),
		Shed:     s.shed.Load(),
		Statuses: make(map[string]uint64, wire.NumStatuses),
	}
	for i := range s.statusCounts {
		if n := s.statusCounts[i].Load(); n > 0 {
			st.Statuses[wire.Status(i).String()] = n
		}
	}
	if rv := s.viewState.Load(); rv != nil {
		st.ViewEpoch = rv.view.Epoch
	}
	st.RangeKeysOut = s.rangeKeysOut.Load()
	st.RangeKeysIn = s.rangeKeysIn.Load()
	return st
}

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if s.closed.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept failure (fd pressure): brief pause, retry.
			time.Sleep(5 * time.Millisecond)
			continue
		}
		s.connsAccepted.Add(1)
		s.mu.Lock()
		if s.closed.Load() {
			// Lost the race with Close's sweep: refuse rather than leak an
			// untracked connection.
			s.mu.Unlock()
			_ = c.Close()
			continue
		}
		cn := &conn{Conn: c, br: bufio.NewReader(c), out: make([]byte, 0, connBufSize)}
		s.conns[cn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.handleConn(cn)
	}
}

func (s *Server) handleConn(cn *conn) {
	defer s.connWG.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, cn)
		s.mu.Unlock()
		_ = cn.Close()
	}()
	for now := time.Now(); ; now = time.Now() {
		req, ok := s.readRequest(cn, now)
		if !ok {
			return
		}
		arrived := time.Now()
		var err error
		picked, status := s.admit(arrived)
		switch status {
		case wire.StatusOK:
			cn.out, status = s.serve(&cn.ctx, req, cn.out[:wire.FrameHeader], arrived, picked)
			<-s.slots
			err = s.send(cn, status)
		case wire.StatusBusy:
			// Shed now, cheaply. This is the whole point of bounding the
			// wait — the reply path does no database work, so overload
			// cannot snowball.
			s.shed.Add(1)
			if s.cfg.Spans != nil {
				// Sheds are always tail-worthy: a zero-duration request
				// span marks where the cluster turned the request away.
				s.tailTrace(req.Trace).Emit(obs.SpanRequest, arrived, 0, int64(req.Op))
			}
			err = s.reply(cn, wire.Response{Status: status, Body: []byte("server busy: admission queue full")})
		default:
			err = s.reply(cn, wire.Response{Status: status, Body: []byte("server draining")})
		}
		if err != nil {
			return
		}
		cn.in, cn.out = trim(cn.in), trim(cn.out)
	}
}

// admit is the admission gate. It returns StatusOK once the caller holds an
// execution slot (released by receiving from s.slots), with picked the
// moment it got it: immediately when one is free, else after waiting among
// at most QueueDepth others — that wait is the queue. An arrival beyond
// that bound gets StatusBusy without blocking; a drain that begins during
// the wait, StatusShutdown.
func (s *Server) admit(arrived time.Time) (picked time.Time, st wire.Status) {
	if s.closed.Load() {
		return arrived, wire.StatusShutdown
	}
	select {
	case s.slots <- struct{}{}:
		return arrived, wire.StatusOK
	default:
	}
	if s.waiters.Add(1) > int64(s.cfg.QueueDepth) {
		s.waiters.Add(-1)
		return arrived, wire.StatusBusy
	}
	defer s.waiters.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return time.Now(), wire.StatusOK
	case <-s.done:
		return arrived, wire.StatusShutdown
	}
}

// serve runs one admitted request inline on its connection's goroutine,
// appending the reply payload to out, with its tracing envelope: the
// request span (parented to the client's wire span), a queue-wait child,
// the MOVED point event, a latency exemplar carrying the trace id, and the
// tail rescue of slow or failed requests the client did not sample.
// arrived is when the request was read, picked when it got its slot; dctx
// is the connection's request context, which execute resets.
func (s *Server) serve(dctx *deadlineCtx, req wire.Request, out []byte, arrived, picked time.Time) ([]byte, wire.Status) {
	if s.queueWait != nil {
		s.queueWait.Observe(picked.Sub(arrived).Nanoseconds())
	}
	// The client made the sampling decision; the wire flag carries it, and
	// this node adopts a sampled trace into its recorder, if it has one.
	reqSpan := s.cfg.Spans.Adopt(req.Trace).StartAt(obs.SpanRequest, arrived)
	sampled := reqSpan.ID() != 0
	if sampled {
		reqSpan.Context().Emit(obs.SpanQueueWait, arrived, picked.Sub(arrived), 0)
	}

	out, status := s.execute(dctx, req, reqSpan.Context(), out)
	dur := time.Since(picked)

	exemplarTrace := uint64(0)
	if sampled {
		exemplarTrace = req.Trace.TraceID
		if status == wire.StatusMoved {
			reqSpan.Context().Emit(obs.SpanMoved, picked, 0, int64(req.Op))
		}
		reqSpan.Finish(int64(req.Op))
	} else if s.cfg.Spans != nil && (failedStatus(status) || s.cfg.SlowThreshold > 0 && dur >= s.cfg.SlowThreshold) {
		// Tail rescue: the client did not sample, but the request turned
		// out slow or broken. Reconstruct a minimal two-span trace after
		// the fact so the outliers are always explorable.
		tc := s.tailTrace(req.Trace)
		tc.Emit(obs.SpanRequest, arrived, time.Since(arrived), int64(req.Op)).
			Emit(obs.SpanQueueWait, arrived, picked.Sub(arrived), 0)
		exemplarTrace = tc.TraceID
	}
	if hist := s.histFor(req.Op); hist != nil {
		hist.ObserveTraced(dur.Nanoseconds(), exemplarTrace)
	}
	return out, status
}

// tailTrace is the adopted trace of a request the client did not sample,
// for the spans the server emits after the fact: the request's own trace
// id, or a fresh one when it came untraced. Spans must be set.
func (s *Server) tailTrace(wtc obs.TraceContext) obs.TraceContext {
	if wtc.TraceID == 0 {
		wtc.TraceID = s.cfg.Spans.NewTraceID()
	}
	wtc.Sampled = true
	return s.cfg.Spans.Adopt(wtc)
}

// failedStatus reports whether a status counts as a failure for tail
// sampling: server-side trouble worth a trace, not client mistakes or
// routine misses.
func failedStatus(st wire.Status) bool {
	switch st {
	case wire.StatusInternal, wire.StatusUnavailable, wire.StatusDeadline, wire.StatusShutdown:
		return true
	}
	return false
}

// histFor returns the op's latency histogram, nil when uninstrumented or
// the op is unknown (an unknown op still gets a BadRequest reply, just no
// latency series).
func (s *Server) histFor(op wire.Op) *obs.Histogram {
	if int(op) >= len(s.opLatency) {
		return nil
	}
	return s.opLatency[op]
}

// execute runs one admitted request against the database under its
// deadline and appends the reply payload to out. dctx is reset to the
// request's budget and released on return; nothing below keeps it past
// that (see deadlineCtx). tc is the request span's context (the zero value
// when unsampled); attached to ctx, it parents the pool, disk, and WAL
// spans the layers below record, and carries the recorder they record into.
func (s *Server) execute(dctx *deadlineCtx, req wire.Request, tc obs.TraceContext, out []byte) ([]byte, wire.Status) {
	budget := req.Timeout
	if budget <= 0 || budget > maxRequestTimeout {
		budget = maxRequestTimeout
	}
	dctx.reset(budget)
	defer dctx.release()
	ctx := obs.ContextWithTrace(dctx, tc)

	if req.Op == wire.OpGet {
		if resp, moved := s.checkOwner(req.CustID); moved {
			return wire.AppendResponse(out, resp), resp.Status
		}
		// The record goes from the page into the reply frame in one copy.
		rec, err := s.db.LookupAppendCtx(ctx, append(out, byte(wire.StatusOK)), req.CustID)
		if err == nil {
			return rec, wire.StatusOK
		}
		resp := errResponse(err)
		return wire.AppendResponse(out, resp), resp.Status
	}
	resp := s.executeOp(ctx, req)
	return wire.AppendResponse(out, resp), resp.Status
}

// executeOp runs every op but GET, whose replies are small or rare enough
// to be built as a Response and copied into the reply frame.
func (s *Server) executeOp(ctx context.Context, req wire.Request) wire.Response {
	switch req.Op {
	case wire.OpScan:
		n, err := s.db.ScanCustomersCtx(ctx)
		if err != nil {
			return errResponse(err)
		}
		var body [8]byte
		binary.BigEndian.PutUint64(body[:], uint64(n))
		return wire.Response{Status: wire.StatusOK, Body: body[:]}
	case wire.OpUpdate:
		s.flushGate.RLock()
		defer s.flushGate.RUnlock()
		if resp, moved := s.checkOwner(req.CustID); moved {
			return resp
		}
		if err := s.db.UpdateCustomerCtx(ctx, req.CustID, req.Fill); err != nil {
			return errResponse(err)
		}
		return wire.Response{Status: wire.StatusOK}
	case wire.OpStats:
		reply := wire.StatsReply{Server: s.Stats(), DB: s.db.StatsSnapshot()}
		if s.reg != nil {
			reply.Obs = s.reg.HistogramSummaries()
		}
		body, err := json.Marshal(reply)
		if err != nil {
			return errResponse(err)
		}
		return wire.Response{Status: wire.StatusOK, Body: body}
	case wire.OpFlush:
		s.flushGate.Lock()
		err := s.db.FlushAllCtx(ctx)
		s.flushGate.Unlock()
		if err != nil {
			return errResponse(err)
		}
		return wire.Response{Status: wire.StatusOK}
	case wire.OpViewGet:
		v := wire.View{}
		if rv := s.viewState.Load(); rv != nil {
			v = rv.view
		}
		return wire.Response{Status: wire.StatusOK, Body: wire.EncodeView(v)}
	case wire.OpViewSet:
		v, err := wire.DecodeView(req.View)
		if err != nil {
			return wire.Response{Status: wire.StatusBadRequest, Body: []byte(err.Error())}
		}
		if v.Epoch == 0 {
			return wire.Response{Status: wire.StatusBadRequest, Body: []byte("view set: epoch must be >= 1")}
		}
		if s.cfg.NodeID == "" {
			return wire.Response{Status: wire.StatusBadRequest, Body: []byte("view set: server has no node id")}
		}
		epoch := s.applyView(v)
		var body [8]byte
		binary.BigEndian.PutUint64(body[:], epoch)
		return wire.Response{Status: wire.StatusOK, Body: body[:]}
	case wire.OpRangeRead:
		return s.executeRangeRead(ctx, req.Lo, req.Hi)
	case wire.OpRangeWrite:
		return s.executeRangeWrite(ctx, req.Entries)
	}
	return wire.Response{Status: wire.StatusBadRequest, Body: []byte(fmt.Sprintf("unknown op %d", req.Op))}
}

// checkOwner is the cluster tier's routing guard: with a membership view
// installed, a record request for a key the ring assigns elsewhere is
// answered MOVED — carrying the owner and this node's whole view, so one
// redirect is enough for a stale client to catch up. Without a view the
// node is standalone and serves everything.
func (s *Server) checkOwner(custID int64) (wire.Response, bool) {
	rv := s.viewState.Load()
	if rv == nil {
		return wire.Response{}, false
	}
	owner := rv.ring.Owner(custID)
	if owner == s.cfg.NodeID {
		return wire.Response{}, false
	}
	body := wire.EncodeMoved(wire.Moved{Owner: owner, View: rv.view})
	return wire.Response{Status: wire.StatusMoved, Body: body}, true
}

// applyView installs v if it is newer than the held view (epochs totally
// order views) and returns the epoch held afterwards. Last-writer-wins
// CAS keeps concurrent VIEW_SETs linearizable without a lock on the read
// path.
func (s *Server) applyView(v wire.View) uint64 {
	next := &ringView{view: v, ring: cluster.NewRing(v)}
	for {
		cur := s.viewState.Load()
		if cur != nil && cur.view.Epoch >= v.Epoch {
			return cur.view.Epoch
		}
		if s.viewState.CompareAndSwap(cur, next) {
			return v.Epoch
		}
	}
}

// executeRangeRead streams the current fill byte of every existing key in
// [lo, hi): the transferable state of a key window during handoff.
func (s *Server) executeRangeRead(ctx context.Context, lo, hi int64) wire.Response {
	if hi-lo > wire.MaxRangeEntries {
		return wire.Response{Status: wire.StatusBadRequest,
			Body: []byte(fmt.Sprintf("range read window %d keys exceeds %d", hi-lo, wire.MaxRangeEntries))}
	}
	entries := make([]wire.RangeEntry, 0, hi-lo)
	var rec []byte
	for key := lo; key < hi; key++ {
		var err error
		rec, err = s.db.LookupAppendCtx(ctx, rec[:0], key)
		switch {
		case errors.Is(err, db.ErrNotFound):
			continue
		case err != nil:
			return errResponse(err)
		case len(rec) <= 8:
			return wire.Response{Status: wire.StatusInternal,
				Body: []byte(fmt.Sprintf("range read: key %d record only %d bytes", key, len(rec)))}
		}
		entries = append(entries, wire.RangeEntry{Key: key, Fill: rec[8]})
	}
	s.rangeKeysOut.Add(uint64(len(entries)))
	return wire.Response{Status: wire.StatusOK, Body: wire.AppendRangeEntries(make([]byte, 0, 4+9*len(entries)), entries)}
}

// executeRangeWrite applies a handoff batch. Application is sequential
// and stops at the first error; the coordinator's retry re-applies the
// whole batch, which is safe because entries are absolute states, not
// deltas. The flush gate is taken per key, not across the batch, so a
// concurrent FLUSH is never starved by a long batch.
func (s *Server) executeRangeWrite(ctx context.Context, entries []wire.RangeEntry) wire.Response {
	var applied uint64
	for _, e := range entries {
		s.flushGate.RLock()
		err := s.db.UpdateCustomerCtx(ctx, e.Key, e.Fill)
		s.flushGate.RUnlock()
		if err != nil {
			return errResponse(fmt.Errorf("range write: key %d after %d applied: %w", e.Key, applied, err))
		}
		applied++
	}
	s.rangeKeysIn.Add(applied)
	var body [8]byte
	binary.BigEndian.PutUint64(body[:], applied)
	return wire.Response{Status: wire.StatusOK, Body: body[:]}
}

// errResponse maps a storage-layer error onto its wire status. Order
// matters only for specificity: breaker and shutdown conditions are typed
// sentinels, deadline covers both expiry and cancellation, and anything
// unrecognised is internal.
func errResponse(err error) wire.Response {
	status := wire.StatusInternal
	switch {
	case errors.Is(err, bufferpool.ErrDiskUnavailable):
		status = wire.StatusUnavailable
	case errors.Is(err, db.ErrClosed) || errors.Is(err, bufferpool.ErrClosed):
		status = wire.StatusShutdown
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		status = wire.StatusDeadline
	case errors.Is(err, db.ErrNotFound):
		status = wire.StatusNotFound
	case storage.IsCorrupt(err):
		// Explicitly internal, not unavailable: corruption is permanent
		// damage on this page, and retrying elsewhere will not help —
		// clients must not treat it as a transient outage.
		status = wire.StatusInternal
	}
	return wire.Response{Status: status, Body: []byte(err.Error())}
}
