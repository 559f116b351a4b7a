// Package memhttp is an in-memory HTTP transport for tests. Its
// Transport serves every request with an http.Handler in the caller's
// goroutine: no listener, no connection, no goroutine, so a test can
// drive a client, a front-door and its shards in one goroutine, step
// by step, and count what they allocate (plus the recorder's own).
package memhttp

import (
	"net/http"
	"net/http/httptest"
)

// Transport is an http.RoundTripper that answers each request by
// calling Handler directly and returning the recorded response. The
// handler sees the client's request as sent; a GET's Body is nil.
type Transport struct {
	Handler http.Handler
}

// RoundTrip serves req with t.Handler.
func (t Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.Handler.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// Client returns an http.Client whose requests h serves.
func Client(h http.Handler) *http.Client {
	return &http.Client{Transport: Transport{Handler: h}}
}

// Writer is an http.ResponseWriter a test reuses across requests:
// Reset clears its header map and body in place, so serving into it
// allocates nothing of its own once it has grown.
type Writer struct {
	// Code is the status the handler wrote (0 until it writes).
	Code int
	// Body holds what the handler wrote.
	Body   []byte
	header http.Header
}

// Header returns the response header map.
func (w *Writer) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

// WriteHeader records the first status written.
func (w *Writer) WriteHeader(code int) {
	if w.Code == 0 {
		w.Code = code
	}
}

// Write appends to Body, implying a 200 when no status was written.
func (w *Writer) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.Body = append(w.Body, b...)
	return len(b), nil
}

// Reset readies the writer for the next request.
func (w *Writer) Reset() {
	clear(w.header)
	w.Code = 0
	w.Body = w.Body[:0]
}
