package client

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// The transport New installs. net/http's Transport runs a reader and a
// writer goroutine per connection, so each round trip crosses two
// goroutine hand-offs on top of its socket I/O, and a front-door read
// is two round trips (DESIGN.md §8 has the profile). Every read the
// client makes is a GET without a body, and those run inline: the
// caller's goroutine writes the request (Request.Write), reads the
// answer (http.ReadResponse) and hands the connection back to an idle
// pool when the body ends. Everything else goes to net/http.

const (
	// maxIdlePerHost and idleTimeout are the pool's limits, the same
	// for both halves of the transport. The timeout is applied when a
	// connection is next taken, not by a timer.
	maxIdlePerHost = 256
	idleTimeout    = time.Minute
)

// aLongTimeAgo is the deadline that interrupts a blocked read or write.
var aLongTimeAgo = time.Unix(1, 0)

// transport runs a plain-http GET without a body in the caller's
// goroutine, on a kept-alive connection from its own idle pool. Every
// other request (a body, another method, https) goes to std.
//
// std keeps the writes for a reason: its background reader notices an
// idle connection the server closed before the connection is reused.
// The inline path finds out only when it writes, and answers by
// sending once more on a fresh connection, which is safe for a GET but
// not for a mutation fan-out, where a failed call ejects the shard.
type transport struct {
	std *http.Transport

	mu   sync.Mutex
	idle map[string][]*conn // by host:port, most recently used last
}

func newTransport() *transport {
	return &transport{std: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConns:        maxIdlePerHost,
		MaxIdleConnsPerHost: maxIdlePerHost,
		IdleConnTimeout:     idleTimeout,
	}}
}

// conn is one connection of the inline path.
type conn struct {
	nc        net.Conn
	br        *bufio.Reader
	bw        *bufio.Writer
	addr      string
	interrupt func() // unblocks nc's pending I/O; the cancel hook
	idleAt    time.Time
}

func newConn(nc net.Conn, addr string) *conn {
	return &conn{
		nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc), addr: addr,
		interrupt: func() { nc.SetDeadline(aLongTimeAgo) },
	}
}

// RoundTrip implements http.RoundTripper. A reused connection that
// fails before the first byte of its answer (the server closed it
// while it sat idle) is retried once on a fresh connection: the
// request is a GET, so sending it twice is safe.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Scheme != "http" || req.Method != http.MethodGet || (req.Body != nil && req.Body != http.NoBody) {
		return t.std.RoundTrip(req)
	}
	ctx := req.Context()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	addr := req.URL.Host
	if req.URL.Port() == "" {
		addr = net.JoinHostPort(req.URL.Hostname(), "80")
	}
	if pc := t.get(addr); pc != nil {
		resp, answered, err := t.exchange(ctx, pc, req)
		if err == nil || answered || ctx.Err() != nil {
			return resp, err
		}
	}
	nc, err := t.std.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	resp, _, err := t.exchange(ctx, newConn(nc, addr), req)
	return resp, err
}

// exchange sends req on pc and reads the answer's header; answered
// reports whether any byte of an answer arrived. On an error pc is
// closed, and if ctx ended the error is ctx's.
func (t *transport) exchange(ctx context.Context, pc *conn, req *http.Request) (resp *http.Response, answered bool, err error) {
	stop := context.AfterFunc(ctx, pc.interrupt)
	if err = req.Write(pc.bw); err == nil {
		err = pc.bw.Flush()
	}
	if err == nil {
		_, err = pc.br.Peek(1)
		answered = err == nil
	}
	if err == nil {
		resp, err = http.ReadResponse(pc.br, req)
	}
	if err != nil {
		stop()
		pc.nc.Close()
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		return nil, answered, err
	}
	b := &body{rc: resp.Body, t: t, pc: pc, req: req, stop: stop, keep: !resp.Close && !req.Close}
	if resp.Body == http.NoBody {
		b.release(bodyEOF)
	} else {
		resp.Body = b
	}
	return resp, true, nil
}

// get takes the most recently used idle connection to addr, or nil.
// Connections sit in the order they went idle, so when the newest has
// been idle too long, so have the rest: all of them are closed.
func (t *transport) get(addr string) *conn {
	t.mu.Lock()
	idle := t.idle[addr]
	if len(idle) == 0 {
		t.mu.Unlock()
		return nil
	}
	pc := idle[len(idle)-1]
	if time.Since(pc.idleAt) >= idleTimeout {
		delete(t.idle, addr)
		t.mu.Unlock()
		for _, old := range idle {
			old.nc.Close()
		}
		return nil
	}
	idle[len(idle)-1] = nil
	t.idle[addr] = idle[:len(idle)-1]
	t.mu.Unlock()
	return pc
}

// put returns pc to the idle pool, or closes it when its host's share
// of the pool is full.
func (t *transport) put(pc *conn) {
	pc.idleAt = time.Now()
	t.mu.Lock()
	if idle := t.idle[pc.addr]; len(idle) < maxIdlePerHost {
		if t.idle == nil {
			t.idle = make(map[string][]*conn)
		}
		t.idle[pc.addr] = append(idle, pc)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	pc.nc.Close()
}

// CloseIdleConnections closes every idle connection of both halves of
// the transport; http.Client.CloseIdleConnections calls it.
func (t *transport) CloseIdleConnections() {
	t.mu.Lock()
	idle := t.idle
	t.idle = nil
	t.mu.Unlock()
	for _, conns := range idle {
		for _, pc := range conns {
			pc.nc.Close()
		}
	}
	t.std.CloseIdleConnections()
}

// Body states: a body is open until it reads to EOF or is closed.
const (
	bodyOpen int32 = iota
	bodyEOF
	bodyClosed
)

// body is an inline answer's body. Its connection goes back to the
// pool only when all three hold: the body was read to EOF, neither
// side asked to close the connection, and the cancel hook never ran.
// Any other end closes the connection.
type body struct {
	rc    io.ReadCloser
	t     *transport
	pc    *conn
	req   *http.Request // whose context the cancel hook watches
	stop  func() bool
	keep  bool
	state atomic.Int32
}

func (b *body) Read(p []byte) (int, error) {
	switch b.state.Load() {
	case bodyEOF:
		return 0, io.EOF
	case bodyClosed:
		return 0, http.ErrBodyReadAfterClose
	}
	n, err := b.rc.Read(p)
	switch {
	case errors.Is(err, io.EOF):
		b.release(bodyEOF)
	case err != nil:
		if cerr := b.req.Context().Err(); cerr != nil {
			err = cerr
		}
		b.release(bodyClosed)
	}
	return n, err
}

// Close ends the body; unread, it costs the connection.
func (b *body) Close() error {
	b.release(bodyClosed)
	return nil
}

// release ends the body once, pooling or closing its connection.
func (b *body) release(end int32) {
	if !b.state.CompareAndSwap(bodyOpen, end) {
		return
	}
	if b.stop() && end == bodyEOF && b.keep && b.pc.br.Buffered() == 0 {
		b.t.put(b.pc)
		return
	}
	b.pc.nc.Close()
}
