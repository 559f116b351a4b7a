package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"compactroute"
	"compactroute/internal/obs"
)

// TestEndToEndTracePropagation forces a trace through the full stack
// — front-door proxy leg, shard worker pool, scheme walk — and then
// retrieves the merged view by the one propagated ID. Every layer
// must have recorded spans under that ID, and the shard view must
// carry the hop-by-hop path.
func TestEndToEndTracePropagation(t *testing.T) {
	const nodes = 80
	c, servers, _ := bootCluster(t, 2, nodes, time.Hour)
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	net := servers[0].Scheme().Network()
	g := net.Graph()
	const traceID = "e2e-trace-01"

	// Find a src/dst pair owned by DIFFERENT shards: the destination's
	// owner must still see nothing of the request.
	var src, dst uint64
	found := false
	for i := 0; i < nodes && !found; i++ {
		for j := 1; j < nodes; j++ {
			u, v := g.Name(compactroute.NodeID(i)), g.Name(compactroute.NodeID(j))
			if c.Owner(u) != c.Owner(v) {
				src, dst, found = u, v, true
				break
			}
		}
	}
	if !found {
		t.Fatal("no cross-shard pair among the base names")
	}

	req, err := http.NewRequestWithContext(context.Background(), "GET",
		fmt.Sprintf("%s/v1/route?src=%d&dst=%d", front.URL, src, dst), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.Header, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced route: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.Header); got != traceID {
		t.Fatalf("front-door echoed trace ID %q, want %q", got, traceID)
	}

	// Retrieve the merged trace by the propagated ID.
	resp, err = http.Get(front.URL + "/v1/trace/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/trace/%s: status %d: %s", traceID, resp.StatusCode, body)
	}
	var merged struct {
		ID     string        `json:"id"`
		Front  obs.TraceView `json:"front"`
		Shards []struct {
			URL   string         `json:"url"`
			Trace *obs.TraceView `json:"trace"`
			Error string         `json:"error"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(body, &merged); err != nil {
		t.Fatalf("merged trace does not decode: %v\n%s", err, body)
	}
	if merged.ID != traceID || merged.Front.ID != traceID {
		t.Fatalf("merged trace IDs: %q / front %q, want %q", merged.ID, merged.Front.ID, traceID)
	}

	layers := func(v obs.TraceView) map[string]int {
		m := map[string]int{}
		for _, s := range v.Spans {
			m[s.Layer]++
		}
		return m
	}

	// Front-door view: one forward leg ran under the "frontdoor" layer,
	// to the src owner, and the request closed with a status.
	if merged.Front.Status != http.StatusOK || merged.Front.Endpoint == "" {
		t.Fatalf("front trace not finished: %+v", merged.Front)
	}
	owner := c.ShardURLs()[c.Owner(src)]
	var legs []obs.Span
	for _, s := range merged.Front.Spans {
		if s.Layer == "frontdoor" {
			legs = append(legs, s)
		}
	}
	if len(legs) != 1 || legs[0].Name != "proxy" || legs[0].Detail != owner || legs[0].DurNs <= 0 {
		t.Fatalf("front trace legs %+v, want one timed proxy span to %s", legs, owner)
	}

	// Shard views: the merge queried both shards, and only the src
	// owner stores the trace, with pool and scheme spans and the
	// hop-by-hop path.
	if len(merged.Shards) != 2 {
		t.Fatalf("merged trace covers %d shards, want 2", len(merged.Shards))
	}
	for _, sh := range merged.Shards {
		if sh.Error != "" {
			t.Fatalf("shard %s trace fetch: %s", sh.URL, sh.Error)
		}
		if (sh.Trace != nil) != (sh.URL == owner) {
			t.Fatalf("shard %s stored trace %v; want it stored only on the src owner %s", sh.URL, sh.Trace != nil, owner)
		}
		if sh.Trace == nil {
			continue
		}
		if sh.Trace.ID != traceID {
			t.Fatalf("shard %s stored trace %q, want %q", sh.URL, sh.Trace.ID, traceID)
		}
		l := layers(*sh.Trace)
		if l["pool"] == 0 || l["scheme"] == 0 {
			t.Fatalf("shard %s trace missing pool/scheme spans: %+v", sh.URL, sh.Trace.Spans)
		}
		if len(sh.Trace.Path) == 0 {
			t.Fatalf("shard %s trace recorded no hop path", sh.URL)
		}
	}
}
