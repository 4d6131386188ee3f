package server

import (
	"bufio"
	"errors"
	"net"
	"time"

	"repro/internal/server/wire"
)

// conn is one connection's state, owned by its handler goroutine. Buffer
// ownership: a request payload (and anything DecodeRequest aliased into
// it) is valid until the connection's next read; a reply frame until its
// write returns.
type conn struct {
	net.Conn
	br  *bufio.Reader
	in  []byte // request payload storage
	out []byte // reply frame storage, length prefix included
	// readArmed / writeArmed are when the socket deadlines were last set.
	readArmed, writeArmed time.Time
	// ctx is the context of the request in flight, reset for each one;
	// Close's hard-close cancels it.
	ctx deadlineCtx
}

const (
	// connBufSize is a connection's initial reply buffer: a record reply
	// (a record fits one 4 KByte page) never regrows it by more than once.
	connBufSize = 4 << 10
	// maxRetainedBuf caps what an idle connection pins: a buffer that one
	// large frame (STATS, a range block) grew past it is dropped afterwards.
	maxRetainedBuf = 16 << 10
	// idleTimeout bounds the wait for the next request frame on an open
	// connection, writeTimeout the writing of one response. Socket
	// deadlines are re-armed only once the armed one is more than a second
	// stale, so both fire within [timeout - 1s, timeout].
	idleTimeout  = 60 * time.Second
	writeTimeout = 10 * time.Second
)

// trim replaces a buffer grown past maxRetainedBuf with a fresh small one.
func trim(buf []byte) []byte {
	if cap(buf) > maxRetainedBuf {
		return make([]byte, 0, connBufSize)
	}
	return buf
}

// stale reports whether a deadline armed at armed needs re-arming at now.
func stale(armed, now time.Time) bool {
	return now.Sub(armed) > time.Second
}

// readRequest reads and decodes the connection's next request, re-arming
// the idle deadline first if it has gone stale. ok is false when the
// connection is finished: drain, EOF, timeout, or a protocol violation
// (answered StatusBadRequest before the cut, since the stream may be
// desynchronised).
func (s *Server) readRequest(cn *conn, now time.Time) (req wire.Request, ok bool) {
	if stale(cn.readArmed, now) {
		_ = cn.SetReadDeadline(now.Add(idleTimeout))
		cn.readArmed = now
	}
	// Checked after arming: Close sets closed and then nudges every read
	// deadline, so whichever side writes the deadline last, the handler
	// either sees closed here or keeps the nudge.
	if s.closed.Load() {
		return req, false
	}
	var payload []byte
	var err error
	// A length prefix past the frame guard is rejected before any allocation.
	payload, cn.in, err = wire.ReadFrameInto(cn.br, cn.in, wire.MaxFrameDefault)
	if err == nil {
		req, err = wire.DecodeRequest(payload)
	} else if !errors.Is(err, wire.ErrFrameTooLarge) {
		return req, false // EOF, idle timeout, or the drain's nudge: just close
	}
	if err != nil {
		_ = s.reply(cn, wire.Response{Status: wire.StatusBadRequest, Body: []byte(err.Error())})
		return req, false
	}
	s.requests.Add(1)
	return req, true
}

// reply encodes resp into the connection's reply buffer and sends it.
func (s *Server) reply(cn *conn, resp wire.Response) error {
	cn.out = wire.AppendResponse(cn.out[:wire.FrameHeader], resp)
	return s.send(cn, resp.Status)
}

// send seals the reply frame held in cn.out and writes it in one Write
// under the write deadline, recording its status.
func (s *Server) send(cn *conn, status wire.Status) error {
	s.statusCounts[status].Add(1)
	if now := time.Now(); stale(cn.writeArmed, now) {
		_ = cn.SetWriteDeadline(now.Add(writeTimeout))
		cn.writeArmed = now
	}
	wire.SealFrame(cn.out)
	_, err := cn.Write(cn.out)
	return err
}
