package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"compactroute"
	"compactroute/client"
	"compactroute/internal/obs"
	"compactroute/internal/server"
)

// getFront fetches one front-door endpoint and returns its 200 body.
func getFront(t *testing.T, front *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(front.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
	}
	return body
}

// TestFrontDoorScrapeEndpoints pins the front-door's three scrape
// views over a degraded tier: two shards, the second ejected (but
// still answering) after it fell one mutation behind. healthz reports
// "degraded" with every shard's version and log position, stats
// carries the coordination counters plus one row per shard, and the
// metrics scrape parses strictly, with the per-shard pool and version
// series present only for the healthy shard.
func TestFrontDoorScrapeEndpoints(t *testing.T) {
	c, servers, _ := bootCluster(t, 2, 60, time.Hour)
	front := httptest.NewServer(c.Handler())
	defer front.Close()
	fc := client.New(front.URL)
	ctx := context.Background()
	g := servers[0].Scheme().Network().Graph()
	urls := c.ShardURLs()
	mut := compactroute.MutSetWeight(g.Name(0), firstNeighborName(servers[0]), 2)

	// Both shards: one mutation, one cut-over, one more mutation, some
	// routes. Then shard 1 is ejected and misses a third mutation.
	if _, err := fc.Mutate(ctx, mut); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.RebuildWait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Mutate(ctx, mut); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 20; u++ {
		if _, err := fc.RouteByName(ctx, g.Name(compactroute.NodeID(u)), g.Name(1)); err != nil {
			t.Fatal(err)
		}
	}
	c.eject(c.shards[1], errors.New("ejected by the test"))
	if _, err := fc.Mutate(ctx, mut); err != nil {
		t.Fatal(err)
	}
	type row struct{ version, pending, mutations uint64 }
	want := []row{{1, 2, 3}, {1, 1, 2}}

	var hz struct {
		Status  string        `json:"status"`
		Healthy int           `json:"healthy"`
		Shards  []ShardHealth `json:"shards"`
	}
	if err := json.Unmarshal(getFront(t, front, "/v1/healthz"), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "degraded" || hz.Healthy != 1 || len(hz.Shards) != 2 {
		t.Fatalf("healthz: %+v, want degraded with 1 of 2 healthy", hz)
	}
	for i, r := range hz.Shards {
		if r.URL != urls[i] || r.Healthy != (i == 0) || r.Error != "" {
			t.Fatalf("healthz row %d: %+v", i, r)
		}
		if got := (row{r.Version, r.Pending, r.Mutations}); got != want[i] {
			t.Fatalf("healthz row %d: version/pending/mutations %v, want %v", i, got, want[i])
		}
	}

	var st struct {
		Cluster Stats `json:"cluster"`
		Shards  []struct {
			URL   string        `json:"url"`
			Stats *server.Stats `json:"stats"`
			Error string        `json:"error"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(getFront(t, front, "/v1/stats"), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster.Shards != 2 || st.Cluster.Healthy != 1 || st.Cluster.Ejections != 1 || st.Cluster.Routes != 20 {
		t.Fatalf("stats cluster block: %+v", st.Cluster)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("stats: %d shard rows, want 2", len(st.Shards))
	}
	for i, r := range st.Shards {
		if r.URL != urls[i] || r.Error != "" || r.Stats == nil || r.Stats.Dynamic == nil {
			t.Fatalf("stats row %d: %+v", i, r)
		}
		d := r.Stats.Dynamic
		if got := (row{d.Version, d.Pending, d.Mutations}); got != want[i] {
			t.Fatalf("stats row %d: version/pending/mutations %v, want %v", i, got, want[i])
		}
		if r.Stats.Requests != servers[i].Stats().Requests {
			t.Fatalf("stats row %d: %d requests, shard says %d", i, r.Stats.Requests, servers[i].Stats().Requests)
		}
	}

	fams, err := obs.ParseText(string(getFront(t, front, "/v1/metrics")))
	if err != nil {
		t.Fatalf("front-door /v1/metrics is not valid exposition text: %v", err)
	}
	up := fams[obs.MetricShardUp]
	if up == nil || len(up.Points) != 2 {
		t.Fatalf("shard up family: %+v", up)
	}
	for _, p := range up.Points {
		want := 0.0
		if p.Labels["shard"] == urls[0] {
			want = 1
		}
		if p.Value != want {
			t.Fatalf("shard up %v = %v, want %v", p.Labels, p.Value, want)
		}
	}
	for name, want := range map[string]float64{
		obs.MetricShardRequestsTotal:   float64(servers[0].Stats().Requests),
		obs.MetricShardHitsTotal:       float64(servers[0].Stats().Hits),
		obs.MetricShardTopologyVersion: 1,
	} {
		f := fams[name]
		if f == nil || len(f.Points) != 1 {
			t.Fatalf("%s: %+v, want one point for the healthy shard", name, f)
		}
		if p := f.Points[0]; p.Labels["shard"] != urls[0] || p.Value != want {
			t.Fatalf("%s: %v = %v, want shard=%s = %v", name, p.Labels, p.Value, urls[0], want)
		}
	}
}

// TestScrapeIsOneStatsCallPerShard: every front-door scrape view reads
// one snapshot — exactly one /v1/stats call to each live shard and no
// /v1/healthz call. healthz and stats also fetch the ejected shard,
// whose row they report; metrics skips it, since it emits no stats
// for an ejected shard.
func TestScrapeIsOneStatsCallPerShard(t *testing.T) {
	c, _, wraps := bootCluster(t, 2, 40, time.Hour)
	front := httptest.NewServer(c.Handler())
	defer front.Close()
	c.eject(c.shards[1], errors.New("ejected by the test"))
	for _, tc := range []struct {
		path string
		want [2]uint64
	}{
		{"/v1/healthz", [2]uint64{1, 1}},
		{"/v1/stats", [2]uint64{1, 1}},
		{"/v1/metrics", [2]uint64{1, 0}},
	} {
		var before [2]uint64
		for i, w := range wraps {
			before[i] = w.stats.Load()
		}
		getFront(t, front, tc.path)
		for i, w := range wraps {
			if n := w.stats.Load() - before[i]; n != tc.want[i] {
				t.Fatalf("%s: shard %d took %d /v1/stats calls, want %d", tc.path, i, n, tc.want[i])
			}
			if n := w.healthz.Load(); n != 0 {
				t.Fatalf("%s: shard %d took %d /v1/healthz calls, want 0", tc.path, i, n)
			}
		}
	}
}
