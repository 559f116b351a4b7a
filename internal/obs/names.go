package obs

// Metric name registry. Every exported series name lives here as a
// constant so the metricnames analyzer can pin the set in
// lint/metrics.txt: adding a series is a deliberate, reviewed act,
// and a renamed series fails lint until the registry is regenerated
// (go run ./cmd/crlint -write-metrics ./...).
const (
	// Request-level families, shared by routed and routefront.
	MetricRequestsTotal        = "compactroute_requests_total"
	MetricRequestLatency       = "compactroute_request_latency_seconds"
	MetricRequestLatencyWindow = "compactroute_request_latency_window_seconds"
	MetricRouteStretch         = "compactroute_route_stretch"
	MetricTracesSampledTotal   = "compactroute_traces_sampled_total"
	MetricEventsTotal          = "compactroute_events_total"

	// Shard (routed) pool and topology families.
	MetricPoolRequestsTotal  = "compactroute_pool_requests_total"
	MetricPoolHitsTotal      = "compactroute_pool_cache_hits_total"
	MetricPoolMissesTotal    = "compactroute_pool_cache_misses_total"
	MetricPoolCoalescedTotal = "compactroute_pool_coalesced_total"
	MetricPoolErrorsTotal    = "compactroute_pool_errors_total"
	MetricPoolRejectedTotal  = "compactroute_pool_rejected_total"
	MetricPoolPurgesTotal    = "compactroute_pool_cache_purges_total"
	MetricPoolInflight       = "compactroute_pool_inflight"
	MetricPoolCacheEntries   = "compactroute_pool_cache_entries"
	MetricPoolCacheCapacity  = "compactroute_pool_cache_capacity"
	MetricPoolWorkers        = "compactroute_pool_workers"

	MetricTopologyVersion    = "compactroute_topology_version"
	MetricMutationsTotal     = "compactroute_mutations_applied_total"
	MetricMutationsPending   = "compactroute_mutations_pending"
	MetricSwapsTotal         = "compactroute_swaps_total"
	MetricSwapPauseSeconds   = "compactroute_swap_pause_seconds"
	MetricRebuildWallSeconds = "compactroute_rebuild_wall_seconds"
	MetricFaultDownNodes     = "compactroute_fault_down_nodes"
	MetricFaultDownEdges     = "compactroute_fault_down_edges"
	MetricFaultDamped        = "compactroute_fault_damped"

	// Front-door (routefront) cluster families.
	MetricClusterRoutesTotal       = "compactroute_cluster_routes_total"
	MetricClusterProxiedTotal      = "compactroute_cluster_proxied_total"
	MetricClusterFailoversTotal    = "compactroute_cluster_failovers_total"
	MetricClusterEjectionsTotal    = "compactroute_cluster_ejections_total"
	MetricClusterReadmissionsTotal = "compactroute_cluster_readmissions_total"
	MetricClusterSkewsTotal        = "compactroute_cluster_skews_total"
	MetricClusterSwapsTotal        = "compactroute_cluster_swaps_total"
	MetricClusterCutoverSeconds    = "compactroute_cluster_cutover_seconds"
	MetricClusterShards            = "compactroute_cluster_shards"
	MetricClusterShardsHealthy     = "compactroute_cluster_shards_healthy"

	// Per-shard series re-exported by the front-door with a shard
	// label, aggregated from each shard's /v1/stats at scrape time.
	MetricShardUp              = "compactroute_shard_up"
	MetricShardRequestsTotal   = "compactroute_shard_requests_total"
	MetricShardHitsTotal       = "compactroute_shard_cache_hits_total"
	MetricShardTopologyVersion = "compactroute_shard_topology_version"
)
