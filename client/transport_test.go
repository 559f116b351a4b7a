package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The transport tests run New's transport against real loopback
// listeners. CI runs them again under the race detector, twenty times
// over (`-race -count=20 -run TestTransport ./client`).

// countedServer is an httptest server that counts the connections it
// accepts.
type countedServer struct {
	*httptest.Server
	conns atomic.Int64
}

func newCountedServer(t *testing.T, h http.Handler) *countedServer {
	t.Helper()
	s := &countedServer{Server: httptest.NewUnstartedServer(h)}
	s.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			s.conns.Add(1)
		}
	}
	s.Start()
	t.Cleanup(s.Close)
	return s
}

// newTestClient is New(url) with its transport exposed; its idle
// connections close at cleanup.
func newTestClient(t *testing.T, url string) (*Client, *transport) {
	t.Helper()
	c := New(url)
	t.Cleanup(c.HTTP.CloseIdleConnections)
	return c, c.HTTP.Transport.(*transport)
}

// idleCount is how many connections the inline pool holds.
func (t *transport) idleCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, conns := range t.idle {
		n += len(conns)
	}
	return n
}

// get fetches path and returns the whole body.
func get(ctx context.Context, c *Client, path string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

func echoQuery(w http.ResponseWriter, r *http.Request) { io.WriteString(w, r.URL.RawQuery) }

// TestTransportRetriesStaleIdleConn: the server closes a pooled
// connection while it sits idle, and the next GET succeeds on one
// retry over one fresh connection.
func TestTransportRetriesStaleIdleConn(t *testing.T) {
	s := newCountedServer(t, http.HandlerFunc(echoQuery))
	c, tr := newTestClient(t, s.URL)
	ctx := context.Background()
	if body, err := get(ctx, c, "/?a"); err != nil || body != "a" {
		t.Fatalf("first GET: %q, %v", body, err)
	}
	if tr.idleCount() != 1 {
		t.Fatalf("%d idle connections after a read, want 1", tr.idleCount())
	}
	s.CloseClientConnections()
	if body, err := get(ctx, c, "/?b"); err != nil || body != "b" {
		t.Fatalf("GET over a connection the server closed: %q, %v", body, err)
	}
	if n := s.conns.Load(); n != 2 {
		t.Fatalf("%d connections, want 2 (the stale one and one retry)", n)
	}
	if tr.idleCount() != 1 {
		t.Fatalf("%d idle connections after the retry, want 1", tr.idleCount())
	}
}

// rawServer accepts connections and hands each to serve; it counts
// the connections.
func rawServer(t *testing.T, serve func(net.Conn)) (url string, conns *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conns = new(atomic.Int64)
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				serve(nc)
			}()
		}
	}()
	return "http://" + ln.Addr().String(), conns
}

// TestTransportNoRetryAfterAnswerBegan: a reused connection that
// fails once bytes of the answer have arrived is an error, and the
// request is not sent again.
func TestTransportNoRetryAfterAnswerBegan(t *testing.T) {
	url, conns := rawServer(t, func(nc net.Conn) {
		br := bufio.NewReader(nc)
		if _, err := http.ReadRequest(br); err != nil {
			return
		}
		io.WriteString(nc, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
		if _, err := http.ReadRequest(br); err != nil {
			return
		}
		io.WriteString(nc, "HTTP/1.1 200 OK\r\nContent-Len") // and hang up
	})
	c, tr := newTestClient(t, url)
	ctx := context.Background()
	if body, err := get(ctx, c, "/"); err != nil || body != "ok" {
		t.Fatalf("first GET: %q, %v", body, err)
	}
	if body, err := get(ctx, c, "/"); err == nil {
		t.Fatalf("GET cut off mid-header answered %q", body)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("%d connections, want 1: an answer that began is not retried", n)
	}
	if tr.idleCount() != 0 {
		t.Fatalf("%d idle connections after a failed read, want 0", tr.idleCount())
	}
}

// TestTransportCancelsBlockedRead: against a server that never
// answers, canceling the request's context and the client's Timeout
// each end the read at once, with the matching context error, and
// the connection is closed rather than pooled. A read canceled in the
// middle of a body ends with the context's error too: that is how the
// front-door tells a caller who left from a shard that failed.
func TestTransportCancelsBlockedRead(t *testing.T) {
	hungUp := make(chan struct{}, 3)
	url, _ := rawServer(t, func(nc net.Conn) {
		req, err := http.ReadRequest(bufio.NewReader(nc))
		if err == nil && req.URL.Path == "/half" {
			io.WriteString(nc, "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhalf")
		}
		io.Copy(io.Discard, nc) // answer nothing (more)
		hungUp <- struct{}{}
	})
	closed := func(how string) {
		t.Helper()
		select {
		case <-hungUp:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the connection was never closed", how)
		}
	}

	c, tr := newTestClient(t, url)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	_, err := get(ctx, c, "/")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled read: %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 120*time.Millisecond {
		t.Fatalf("canceled read returned after %v, want within 100ms of the cancel at 20ms", d)
	}
	closed("canceled read")

	c.HTTP.Timeout = 20 * time.Millisecond
	start = time.Now()
	_, err = get(context.Background(), c, "/")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out read: %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 120*time.Millisecond {
		t.Fatalf("timed-out read returned after %v, want within 100ms of the 20ms timeout", d)
	}
	closed("timed-out read")

	c.HTTP.Timeout = 0
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/half", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	time.AfterFunc(20*time.Millisecond, cancel)
	if b, err := io.ReadAll(resp.Body); !errors.Is(err, context.Canceled) || string(b) != "half" {
		t.Fatalf("body read canceled halfway: %q, %v, want \"half\" and context.Canceled", b, err)
	}
	closed("body read canceled halfway")
	if tr.idleCount() != 0 {
		t.Fatalf("%d idle connections after three abandoned reads, want 0", tr.idleCount())
	}
}

// TestTransportReuseRules: a connection is reused only after a body
// read to EOF (chunked too) on an answer that did not ask to close.
func TestTransportReuseRules(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/close", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		io.WriteString(w, "bye")
	})
	mux.HandleFunc("/big", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, strings.Repeat("x", 64<<10))
	})
	mux.HandleFunc("/chunked", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "abc")
		w.(http.Flusher).Flush() // no Content-Length: the answer is chunked
		io.WriteString(w, "def")
	})
	for _, tc := range []struct {
		path  string
		read  func(io.Reader) error
		conns int64 // after two requests
		idle  int
	}{
		{"/close", func(r io.Reader) error { _, err := io.ReadAll(r); return err }, 2, 0},
		{"/big", func(r io.Reader) error { _, err := r.Read(make([]byte, 10)); return err }, 2, 0},
		{"/chunked", func(r io.Reader) error {
			b, err := io.ReadAll(r)
			if err == nil && string(b) != "abcdef" {
				err = fmt.Errorf("body %q", b)
			}
			return err
		}, 1, 1},
	} {
		t.Run(tc.path, func(t *testing.T) {
			s := newCountedServer(t, mux)
			c, tr := newTestClient(t, s.URL)
			for range 2 {
				resp, err := c.HTTP.Get(s.URL + tc.path)
				if err != nil {
					t.Fatal(err)
				}
				if tc.path == "/chunked" && len(resp.TransferEncoding) == 0 {
					t.Fatal("answer not chunked")
				}
				err = tc.read(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
			}
			if n := s.conns.Load(); n != tc.conns {
				t.Fatalf("%d connections for two requests, want %d", n, tc.conns)
			}
			if n := tr.idleCount(); n != tc.idle {
				t.Fatalf("%d idle connections, want %d", n, tc.idle)
			}
		})
	}
}

// TestTransportWritesUseNetHTTP: a POST, with a body or without one,
// goes to net/http's Transport and never touches the inline pool.
func TestTransportWritesUseNetHTTP(t *testing.T) {
	s := newCountedServer(t, http.HandlerFunc(echoQuery))
	c, tr := newTestClient(t, s.URL)
	if _, err := get(context.Background(), c, "/?a"); err != nil {
		t.Fatal(err)
	}
	for i, body := range []io.Reader{strings.NewReader(`[]`), nil} {
		resp, err := c.HTTP.Post(s.URL+"/?p", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadAll(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if n := tr.idleCount(); n != 1 {
			t.Fatalf("POST %d: %d idle inline connections, want the GET's 1", i, n)
		}
	}
	// Two connections: the GET's, and one net/http kept for both POSTs.
	if n := s.conns.Load(); n != 2 {
		t.Fatalf("%d connections, want 2", n)
	}
}

// TestTransportCloseIdleConnections empties the inline pool and
// net/http's, and leaves no goroutine behind.
func TestTransportCloseIdleConnections(t *testing.T) {
	s := newCountedServer(t, http.HandlerFunc(echoQuery))
	before := runtime.NumGoroutine()
	c, tr := newTestClient(t, s.URL)
	var wg sync.WaitGroup
	for i := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := get(context.Background(), c, fmt.Sprintf("/?%d", i)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	resp, err := c.HTTP.Post(s.URL, "application/json", strings.NewReader(`[]`))
	if err != nil {
		t.Fatal(err)
	}
	io.ReadAll(resp.Body)
	resp.Body.Close()
	if tr.idleCount() == 0 {
		t.Fatal("no idle connections to close")
	}
	c.HTTP.CloseIdleConnections()
	if n := tr.idleCount(); n != 0 {
		t.Fatalf("%d idle connections after CloseIdleConnections", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive CloseIdleConnections (%d before)", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTransportConcurrentCallers: many callers share one pool while
// the server drops every connection now and then, some callers give
// up early, and the pool is emptied under them. Every answer that
// arrives must be the caller's own; the race detector watches the
// pool, the cancel hook and the retry.
func TestTransportConcurrentCallers(t *testing.T) {
	s := newCountedServer(t, http.HandlerFunc(echoQuery))
	c, _ := newTestClient(t, s.URL)
	stop := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(3 * time.Millisecond):
			}
			if i%2 == 0 {
				s.CloseClientConnections()
			} else {
				c.HTTP.CloseIdleConnections()
			}
		}
	}()
	var wg sync.WaitGroup
	var ok atomic.Int64
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 100 {
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if i%10 == 3 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i%4)*100*time.Microsecond)
				}
				q := fmt.Sprintf("w%d-%d", w, i)
				body, err := get(ctx, c, "/?"+q)
				cancel()
				switch {
				case err == nil && body != q:
					t.Errorf("asked %q, answered %q", q, body)
				case err == nil:
					ok.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	chaos.Wait()
	if ok.Load() == 0 {
		t.Fatal("no read succeeded")
	}
}
