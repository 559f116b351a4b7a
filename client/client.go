// Package client is the Go client for the routed/routefront HTTP
// API. It always speaks the versioned /v1 surface and mirrors the
// server's typed error taxonomy: any non-2xx answer comes back as an
// *Error carrying the HTTP status and the server's message, so callers
// distinguish a name they invented (422) from retryable back-pressure
// (503) from a coordination conflict (409) without parsing bodies.
//
//	c := client.New("http://localhost:8347")
//	res, err := c.RouteByName(ctx, src, dst)
//	var apiErr *client.Error
//	if errors.As(err, &apiErr) && apiErr.Status == 503 { retry() }
//
// The same client drives a single shard or a front-door — the
// endpoints are identical; the front-door simply owns more names.
//
// New's transport runs every read (a GET without a body over plain
// http: route, healthz, stats, trace) in the calling goroutine on a
// kept-alive connection of its own pool, and hands every write
// (mutate, rebuild, swap) and any https request to net/http's
// Transport. Client.Timeout and a request's context cancel either.
// Replacing c.HTTP or c.HTTP.Transport replaces all of that: the
// replacement carries every request, reads included, as it sees fit.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"compactroute"
	"compactroute/internal/obs"
)

// Error is a non-2xx API answer: the HTTP status plus the server's
// error message. Transport failures (connection refused, timeouts)
// are NOT Errors — they surface as the underlying error, which is how
// callers tell "the server said no" from "there is no server".
type Error struct {
	Status  int
	Message string
}

func (e *Error) Error() string {
	return fmt.Sprintf("api: %d %s: %s", e.Status, http.StatusText(e.Status), e.Message)
}

// IsStatus reports whether err is an API *Error with the given status.
func IsStatus(err error, status int) bool {
	var apiErr *Error
	return errors.As(err, &apiErr) && apiErr.Status == status
}

// Client talks to one routed shard or one routefront front-door.
// The zero value is not usable; construct with New. HTTP may be
// replaced before first use (httptest clients, custom timeouts).
type Client struct {
	// BaseURL is the server root, without a trailing slash.
	BaseURL string
	// HTTP performs the requests. New installs a transport that runs
	// reads inline on its own keep-alive pool and writes on net/http's
	// Transport (see the package doc); a Transport set here replaces it.
	HTTP *http.Client
}

// maxBody caps how much of a response body the client reads.
const maxBody = 16 << 20

// bodyBufs pools the buffers RouteByName reads answers into.
var bodyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// New returns a client for the server at baseURL (scheme://host:port;
// any trailing slash is trimmed).
func New(baseURL string) *Client {
	return &Client{
		BaseURL: strings.TrimRight(baseURL, "/"),
		HTTP:    &http.Client{Transport: newTransport()},
	}
}

// Route is a routing answer. Version is the topology version the
// route was computed on (absent for static schemes).
type Route struct {
	Delivered    bool    `json:"delivered"`
	Cost         float64 `json:"cost"`
	Hops         int     `json:"hops"`
	HeaderBits   int64   `json:"headerBits"`
	ShortestCost float64 `json:"shortestCost,omitempty"`
	Stretch      float64 `json:"stretch,omitempty"`
	Version      *uint64 `json:"version,omitempty"`
}

// Health is a /v1/healthz answer. The dynamic fields are zero for
// static servers.
type Health struct {
	Status    string `json:"status"`
	Scheme    string `json:"scheme"`
	Kind      string `json:"kind"`
	Nodes     int    `json:"nodes"`
	Edges     int    `json:"edges"`
	Metric    bool   `json:"metric"`
	Dynamic   bool   `json:"dynamic"`
	Version   uint64 `json:"version"`
	Pending   uint64 `json:"pending"`
	Mutations uint64 `json:"mutations"`
	Swaps     uint64 `json:"swaps"`
}

// MutateReply reports an accepted mutation batch.
type MutateReply struct {
	Applied int    `json:"applied"`
	Seq     uint64 `json:"seq"`
	Pending uint64 `json:"pending"`
}

// RebuildReply reports an asynchronously scheduled rebuild (202).
type RebuildReply struct {
	Status  string `json:"status"`
	Pending uint64 `json:"pending"`
}

// RouteByName routes between two external names. It is the read
// path: the query is appended with strconv, the answer is read into a
// pooled buffer and decoded without reflection, and it goes through
// c.HTTP like every other call.
func (c *Client) RouteByName(ctx context.Context, src, dst uint64) (Route, error) {
	const path = "/v1/route"
	u := make([]byte, 0, len(c.BaseURL)+64)
	u = append(u, c.BaseURL...)
	u = append(u, path+"?src="...)
	u = strconv.AppendUint(u, src, 10)
	u = append(u, "&dst="...)
	u = strconv.AppendUint(u, dst, 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, string(u), nil)
	if err != nil {
		return Route{}, fmt.Errorf("client: %s: %w", path, err)
	}
	if tr := obs.FromContext(ctx); tr != nil {
		req.Header.Set(obs.Header, tr.ID())
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return Route{}, err
	}
	defer resp.Body.Close()
	buf := bodyBufs.Get().(*[]byte)
	raw, err := readBody((*buf)[:0], resp.Body)
	defer func() {
		// An outsized answer is not kept for the next read.
		if cap(raw) <= 64<<10 {
			*buf = raw
			bodyBufs.Put(buf)
		}
	}()
	if err != nil {
		return Route{}, fmt.Errorf("client: reading %s response: %w", path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return Route{}, apiError(resp.StatusCode, raw)
	}
	out, err := decodeRoute(raw)
	if err != nil {
		return out, fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return out, nil
}

// readBody appends what r yields to b until EOF or until b holds
// maxBody bytes: io.ReadAll(io.LimitReader(r, maxBody)), into a
// buffer the caller supplies.
func readBody(b []byte, r io.Reader) ([]byte, error) {
	for len(b) < maxBody {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):min(cap(b), maxBody)])
		b = b[:len(b)+n]
		if errors.Is(err, io.EOF) {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
	return b, nil
}

// Mutate appends topology mutations atomically (all or none).
func (c *Client) Mutate(ctx context.Context, muts ...compactroute.Mutation) (MutateReply, error) {
	var out MutateReply
	err := c.do(ctx, http.MethodPost, "/v1/mutate", muts, &out)
	return out, err
}

// Rebuild schedules a background rebuild and returns immediately.
func (c *Client) Rebuild(ctx context.Context) (RebuildReply, error) {
	var out RebuildReply
	err := c.do(ctx, http.MethodPost, "/v1/rebuild", nil, &out)
	return out, err
}

// RebuildWait rebuilds and blocks until the new version serves.
func (c *Client) RebuildWait(ctx context.Context) (compactroute.VersionInfo, error) {
	var out compactroute.VersionInfo
	err := c.do(ctx, http.MethodPost, "/v1/rebuild?wait=1", nil, &out)
	return out, err
}

// Stage runs the first half of a two-phase rebuild: the server builds
// the next version (returned here) without swapping it in.
func (c *Client) Stage(ctx context.Context) (compactroute.VersionInfo, error) {
	var out compactroute.VersionInfo
	err := c.do(ctx, http.MethodPost, "/v1/rebuild?stage=1", nil, &out)
	return out, err
}

// SwapTo commits a staged version by ID. A version the server has not
// staged (and is not already serving) answers *Error status 409.
func (c *Client) SwapTo(ctx context.Context, id uint64) (compactroute.VersionInfo, error) {
	var out compactroute.VersionInfo
	err := c.do(ctx, http.MethodPost, "/v1/swap", map[string]uint64{"version": id}, &out)
	return out, err
}

// Healthz fetches liveness, scheme identity, and the live version.
func (c *Client) Healthz(ctx context.Context) (Health, error) {
	var out Health
	err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &out)
	return out, err
}

// Stats fetches the serving counters as raw JSON — the shape differs
// between a shard (pool + dynamic block) and a front-door (cluster
// aggregate), so the client leaves interpretation to the caller.
func (c *Client) Stats(ctx context.Context) (json.RawMessage, error) {
	var out json.RawMessage
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// Trace fetches one stored trace by request ID as raw JSON. A 404
// (ring evicted it, or the request was never traced there) surfaces
// as an *Error with Status 404.
func (c *Client) Trace(ctx context.Context, id string) (json.RawMessage, error) {
	var out json.RawMessage
	err := c.do(ctx, http.MethodGet, "/v1/trace/"+url.PathEscape(id), nil, &out)
	return out, err
}

// do performs one JSON round-trip: 2xx decodes into out, anything
// else becomes an *Error with the server's message.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encoding %s body: %w", path, err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return fmt.Errorf("client: %s: %w", path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate an active trace so a front-door-sampled request is
	// traced under the same ID on every shard it touches.
	if tr := obs.FromContext(ctx); tr != nil {
		req.Header.Set(obs.Header, tr.ID())
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := readBody(make([]byte, 0, 512), resp.Body)
	if err != nil {
		return fmt.Errorf("client: reading %s response: %w", path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return apiError(resp.StatusCode, raw)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return nil
}

// apiError is the *Error for a non-2xx answer: the server's JSON error
// message, or the whole trimmed body when it carries none.
func apiError(status int, raw []byte) *Error {
	var e struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(raw))
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	return &Error{Status: status, Message: msg}
}
