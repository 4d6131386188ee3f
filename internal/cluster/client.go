package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server/client"
	"repro/internal/server/wire"
)

// Client is the cluster-aware client: it owns a membership view, routes
// every keyed operation to the ring owner, keeps a small pool of
// connections per node, and retries along the axes the single-node
// client's error taxonomy exposes:
//
//   - ErrBusy / ErrUnavailable: the node is shedding or its breaker is
//     open. The connection stays pooled; the *node* is penalised with an
//     exponential backoff before the next attempt. Other nodes are
//     unaffected — back off the node, not the ring.
//   - ErrTransport: the connection is poisoned. It is discarded, the node
//     penalised, and — once per operation — the view is refreshed from a
//     surviving node, so a dead node that was rebalanced away is routed
//     around without any out-of-band signal.
//   - ErrMoved: the replier no longer owns the key. The redirect carries
//     the replier's whole view; if it is strictly newer the client adopts
//     it and the very next attempt uses the patched ring. A stale redirect
//     (mid-rebalance bounce) just waits out a short backoff.
//   - Everything else is terminal and returned as-is.
type Config struct {
	// View is the bootstrap membership (typically ParseSpec output,
	// epoch 0). Any server's view is newer and replaces it on first
	// contact with a MOVED redirect or Refresh.
	View wire.View

	// The retry posture has one production value; the fields exist so this
	// package's tests can shorten it (export_test.go). maxAttempts bounds
	// requests sent per operation, counting redirects: zero selects 8,
	// enough to ride out a rebalance bounce window plus one reroute after a
	// node death. busyBackoff is the first per-node penalty after a refusal
	// (zero selects 2ms); it doubles per consecutive failure up to
	// maxBackoff (zero selects 250ms).
	maxAttempts int
	busyBackoff time.Duration
	maxBackoff  time.Duration
}

func (c Config) withDefaults() Config {
	if c.maxAttempts <= 0 {
		c.maxAttempts = 8
	}
	if c.busyBackoff <= 0 {
		c.busyBackoff = 2 * time.Millisecond
	}
	if c.maxBackoff <= 0 {
		c.maxBackoff = 250 * time.Millisecond
	}
	return c
}

// poolSize caps idle connections kept per node.
const poolSize = 2

// NodeCounters is a snapshot of one node's per-outcome request counts.
type NodeCounters struct {
	OK          uint64
	Busy        uint64
	Unavailable uint64
	Moved       uint64
	Transport   uint64
	Err         uint64
}

// node is the per-node state: address, idle connection pool, penalty
// clock, and outcome counters. Entries are never removed from the node
// map — a node leaving the view just stops being routed to (its pool is
// drained), which keeps counters stable and obs registration once-only.
type node struct {
	id string

	mu      sync.Mutex
	addr    string
	idle    []*client.Client
	fails   int
	nextTry time.Time

	ok, busy, unavailable, moved, transport, errs atomic.Uint64
}

// setAddr updates the node's address, draining the pool if it changed
// (the idle connections point at the old endpoint).
func (n *node) setAddr(addr string) {
	n.mu.Lock()
	if n.addr != addr {
		n.addr = addr
		n.drainLocked()
	}
	n.mu.Unlock()
}

func (n *node) drainLocked() {
	for _, c := range n.idle {
		_ = c.Close()
	}
	n.idle = nil
}

// acquire pops an idle connection or dials a fresh one.
func (n *node) acquire() (*client.Client, error) {
	n.mu.Lock()
	if k := len(n.idle); k > 0 {
		c := n.idle[k-1]
		n.idle = n.idle[:k-1]
		n.mu.Unlock()
		return c, nil
	}
	addr := n.addr
	n.mu.Unlock()
	return client.Dial(addr)
}

// release returns a healthy connection to the pool (closing it if the
// pool is full) and clears the node's penalty.
func (n *node) release(c *client.Client) {
	n.mu.Lock()
	n.fails = 0
	n.nextTry = time.Time{}
	if len(n.idle) < poolSize {
		n.idle = append(n.idle, c)
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	_ = c.Close()
}

// penalize backs the node off exponentially: base << (fails-1), capped.
func (n *node) penalize(base, max time.Duration) {
	n.mu.Lock()
	n.fails++
	d := base << (n.fails - 1)
	if d > max || d <= 0 {
		d = max
	}
	n.nextTry = time.Now().Add(d)
	n.mu.Unlock()
}

// holdoff reports how long until the node should next be tried.
func (n *node) holdoff() time.Duration {
	n.mu.Lock()
	d := time.Until(n.nextTry)
	n.mu.Unlock()
	return d
}

// Client routes page operations across a cluster. Safe for concurrent
// use; concurrent operations to different nodes do not serialise.
type Client struct {
	cfg Config

	mu    sync.RWMutex
	view  wire.View
	ring  *Ring
	nodes map[string]*node
	close bool

	scanIdx atomic.Uint64
}

// New builds a cluster client over a bootstrap view.
func New(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	if len(cfg.View.Nodes) == 0 {
		return nil, errors.New("cluster: client needs a non-empty bootstrap view")
	}
	c := &Client{
		cfg:   cfg,
		view:  cfg.View,
		ring:  NewRing(cfg.View),
		nodes: make(map[string]*node),
	}
	for _, n := range cfg.View.Nodes {
		c.node(n.ID, n.Addr)
	}
	return c, nil
}

// node returns (creating if needed) the per-node state, keeping its
// address current.
func (c *Client) node(id, addr string) *node {
	c.mu.RLock()
	n := c.nodes[id]
	c.mu.RUnlock()
	if n == nil {
		c.mu.Lock()
		if n = c.nodes[id]; n == nil {
			n = &node{id: id, addr: addr}
			c.nodes[id] = n
		}
		c.mu.Unlock()
	}
	n.setAddr(addr)
	return n
}

// View returns the currently held membership view.
func (c *Client) View() wire.View {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return cloneView(c.view)
}

// adopt installs a view if it is strictly newer than the held one,
// reconciling node addresses and draining pools of departed nodes.
// It reports whether the view was installed.
func (c *Client) adopt(v wire.View) bool {
	c.mu.Lock()
	if v.Epoch <= c.view.Epoch {
		c.mu.Unlock()
		return false
	}
	c.view = cloneView(v)
	c.ring = NewRing(v)
	current := make(map[string]string, len(v.Nodes))
	for _, n := range v.Nodes {
		current[n.ID] = n.Addr
	}
	var drop []*node
	for id, n := range c.nodes {
		if _, ok := current[id]; !ok {
			drop = append(drop, n)
		}
	}
	c.mu.Unlock()
	for _, n := range drop {
		n.mu.Lock()
		n.drainLocked()
		n.mu.Unlock()
	}
	for _, na := range v.Nodes {
		c.node(na.ID, na.Addr)
	}
	return true
}

// owner resolves a key to its owning node under the current ring.
func (c *Client) owner(key int64) (*node, error) {
	c.mu.RLock()
	if c.close {
		c.mu.RUnlock()
		return nil, errors.New("cluster: client closed")
	}
	id := c.ring.Owner(key)
	var addr string
	for _, n := range c.view.Nodes {
		if n.ID == id {
			addr = n.Addr
			break
		}
	}
	c.mu.RUnlock()
	if id == "" || addr == "" {
		return nil, fmt.Errorf("cluster: no owner for key %d", key)
	}
	return c.node(id, addr), nil
}

// sleepCtx waits d or until the context ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// doKey runs one keyed operation with the full retry policy: settle's,
// plus adoption of the view a MOVED redirect carries (or a bounce wait
// when it is not newer) and one view refresh per operation after a
// transport failure.
func (c *Client) doKey(ctx context.Context, key int64, fn func(*client.Client) error) error {
	var lastErr error
	refreshed := false
	for attempt := 0; attempt < c.cfg.maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := c.owner(key)
		if err != nil {
			return err
		}
		if err := sleepCtx(ctx, n.holdoff()); err != nil {
			return err
		}
		conn, err := n.acquire()
		if err == nil {
			err = fn(conn)
		}
		retry, err := c.settle(ctx, n, conn, err)
		if !retry {
			return err
		}
		lastErr = err
		var se *client.Error
		if errors.As(err, &se) && se.Status == wire.StatusMoved {
			if m, ok := se.MovedView(); !ok || !c.adopt(m.View) {
				// Stale redirect: the cluster is mid-rebalance and this
				// key is bouncing. Wait out a slice of the window.
				if err := sleepCtx(ctx, c.bounceWait(attempt)); err != nil {
					return err
				}
			}
		}
		if errors.Is(err, client.ErrTransport) && !refreshed {
			refreshed = true
			_ = c.refresh(ctx, n.id)
		}
	}
	return fmt.Errorf("cluster: key %d: %d attempts exhausted: %w", key, c.cfg.maxAttempts, lastErr)
}

// settle files one attempt's outcome on node n (Config's table): it
// counts the outcome, returns conn to the pool or closes it, and
// penalises n after a refusal or a transport failure. conn is nil when
// the dial failed, which err already reports as a transport failure.
// retry is false when the operation ends here with err (nil on success).
func (c *Client) settle(ctx context.Context, n *node, conn *client.Client, err error) (retry bool, _ error) {
	switch {
	case err == nil:
		n.ok.Add(1)
	case errors.Is(err, client.ErrMoved):
		n.moved.Add(1)
		n.release(conn)
		return true, err
	case errors.Is(err, client.ErrBusy), errors.Is(err, client.ErrUnavailable):
		if errors.Is(err, client.ErrBusy) {
			n.busy.Add(1)
		} else {
			n.unavailable.Add(1)
		}
		n.release(conn)
		n.penalize(c.cfg.busyBackoff, c.cfg.maxBackoff)
		return true, err
	case errors.Is(err, client.ErrTransport):
		n.transport.Add(1)
		if conn != nil {
			_ = conn.Close()
		}
		n.penalize(c.cfg.busyBackoff, c.cfg.maxBackoff)
		return true, err
	case ctx.Err() != nil:
		_ = conn.Close()
		return false, ctx.Err()
	default:
		// Terminal: not found, bad request, internal, deadline with a
		// live local context, or a malformed-reply client bug.
		n.errs.Add(1)
	}
	n.release(conn)
	return false, err
}

// bounceWait paces retries of a key caught in a rebalance bounce: short
// at first (the window usually closes in milliseconds), growing toward
// maxBackoff so a long handoff is not hammered.
func (c *Client) bounceWait(attempt int) time.Duration {
	d := c.cfg.busyBackoff << attempt
	if d > c.cfg.maxBackoff || d <= 0 {
		d = c.cfg.maxBackoff
	}
	return d
}

// refresh asks the members other than skip for their view and adopts
// the first answer if it is newer. doKey skips the node that just failed,
// to learn whether it was rebalanced away; Refresh asks every member.
func (c *Client) refresh(ctx context.Context, skip string) error {
	c.mu.RLock()
	members := make([]wire.NodeAddr, 0, len(c.view.Nodes))
	for _, na := range c.view.Nodes {
		if na.ID != skip {
			members = append(members, na)
		}
	}
	c.mu.RUnlock()
	var lastErr error
	for _, na := range members {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := c.node(na.ID, na.Addr)
		conn, err := n.acquire()
		if err != nil {
			lastErr = err
			continue
		}
		v, err := conn.ViewGet(ctx)
		if err != nil {
			_ = conn.Close()
			lastErr = err
			continue
		}
		n.release(conn)
		c.adopt(v)
		return nil
	}
	return fmt.Errorf("cluster: refresh failed against every member: %w", lastErr)
}

// Refresh explicitly pulls the newest view reachable from any member.
func (c *Client) Refresh(ctx context.Context) error {
	return c.refresh(ctx, "")
}

// Get fetches a customer's record from its owning node.
func (c *Client) Get(ctx context.Context, custID int64) ([]byte, error) {
	var body []byte
	err := c.doKey(ctx, custID, func(conn *client.Client) error {
		b, err := conn.Get(ctx, custID)
		if err == nil {
			body = b
		}
		return err
	})
	return body, err
}

// Update overwrites a customer's filler bytes on its owning node.
func (c *Client) Update(ctx context.Context, custID int64, fill byte) error {
	return c.doKey(ctx, custID, func(conn *client.Client) error {
		return conn.Update(ctx, custID, fill)
	})
}

// Scan runs a full sequential scan on ONE node, round-robined per call:
// every node loads the full key population, so a single node's scan is
// the whole answer and fanning out would just multiply the disk work.
// Each attempt is settled like a keyed one; a retry moves on to the next
// node rather than waiting out a penalised one.
func (c *Client) Scan(ctx context.Context) (int, error) {
	var lastErr error
	for attempt := 0; attempt < c.cfg.maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		c.mu.RLock()
		if c.close {
			c.mu.RUnlock()
			return 0, errors.New("cluster: client closed")
		}
		members := make([]wire.NodeAddr, len(c.view.Nodes))
		copy(members, c.view.Nodes)
		c.mu.RUnlock()
		if len(members) == 0 {
			return 0, errors.New("cluster: empty view")
		}
		na := members[int(c.scanIdx.Add(1)-1)%len(members)]
		n := c.node(na.ID, na.Addr)
		if n.holdoff() > 0 {
			continue // try the next node in rotation instead of waiting
		}
		count := 0
		conn, err := n.acquire()
		if err == nil {
			count, err = conn.Scan(ctx)
		}
		retry, err := c.settle(ctx, n, conn, err)
		if !retry {
			return count, err
		}
		lastErr = err
	}
	return 0, fmt.Errorf("cluster: scan: %d attempts exhausted: %w", c.cfg.maxAttempts, lastErr)
}

// StatsAll snapshots every member's server stats, keyed by node id.
func (c *Client) StatsAll(ctx context.Context) (map[string]wire.StatsReply, error) {
	out := make(map[string]wire.StatsReply)
	var errs []error
	for _, na := range c.View().Nodes {
		n := c.node(na.ID, na.Addr)
		conn, err := n.acquire()
		if err != nil {
			errs = append(errs, fmt.Errorf("node %s: %w", na.ID, err))
			continue
		}
		reply, err := conn.Stats(ctx)
		if err != nil {
			_ = conn.Close()
			errs = append(errs, fmt.Errorf("node %s: %w", na.ID, err))
			continue
		}
		n.release(conn)
		out[na.ID] = reply
	}
	return out, errors.Join(errs...)
}

// Counters snapshots the per-node outcome counters, keyed by node id.
func (c *Client) Counters() map[string]NodeCounters {
	c.mu.RLock()
	nodes := make([]*node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.mu.RUnlock()
	out := make(map[string]NodeCounters, len(nodes))
	for _, n := range nodes {
		out[n.id] = NodeCounters{
			OK:          n.ok.Load(),
			Busy:        n.busy.Load(),
			Unavailable: n.unavailable.Load(),
			Moved:       n.moved.Load(),
			Transport:   n.transport.Load(),
			Err:         n.errs.Load(),
		}
	}
	return out
}

// Close drains every pool. Outstanding operations on acquired
// connections finish (or fail) independently.
func (c *Client) Close() error {
	c.mu.Lock()
	c.close = true
	nodes := make([]*node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.mu.Unlock()
	for _, n := range nodes {
		n.mu.Lock()
		n.drainLocked()
		n.mu.Unlock()
	}
	return nil
}
