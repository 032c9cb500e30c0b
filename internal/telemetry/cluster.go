package telemetry

// cluster.go holds the cluster routing layer's slice of a telemetry
// Snapshot: the partition-map view, scatter/forward/broadcast routing
// counters, map-negotiation counters and per-node request statistics that
// the router (embedded client.Cluster or cmd/latest-router) publishes
// through the same /metrics and /statusz endpoints as everything else. The
// types live here, below the cluster package in the dependency order, for
// the same reason ServerSample does.

// ClusterNode is one backend node's share of the router's traffic.
type ClusterNode struct {
	// Addr is the node's wire-protocol address.
	Addr string `json:"addr"`
	// Requests counts sub-requests sent to this node (feeds, estimates,
	// query batches, map fetches); Errors counts the ones that failed
	// after the router's own retries.
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	// Latency is the router-observed round-trip distribution.
	Latency HistSnapshot `json:"latency"`
}

// ClusterSample is the cluster routing layer's slice of a Snapshot.
type ClusterSample struct {
	// Epoch is the partition-map version the router currently holds.
	Epoch uint64 `json:"epoch"`
	// Nodes, Cols and Rows describe the held map.
	Nodes int `json:"nodes"`
	Cols  int `json:"cols"`
	Rows  int `json:"rows"`

	// FeedObjects counts objects routed; FeedBatches counts caller feed
	// batches (one batch fans out to at most Nodes sub-batches).
	FeedObjects uint64 `json:"feed_objects"`
	FeedBatches uint64 `json:"feed_batches"`
	// Estimates and Queries count caller-visible operations.
	Estimates uint64 `json:"estimates"`
	Queries   uint64 `json:"queries"`

	// ForwardSingle counts queries forwarded unmodified to one owner,
	// ScatterMulti queries clipped across several owners, Broadcasts
	// keyword-only queries sent to every node.
	ForwardSingle uint64 `json:"forward_single"`
	ScatterMulti  uint64 `json:"scatter_multi"`
	Broadcasts    uint64 `json:"broadcasts"`
	// Subqueries counts node-bound sub-requests issued for queries.
	Subqueries uint64 `json:"subqueries"`

	// NotOwner counts not-owner refusals observed, MapRefetches the map
	// fetches they (or startup) triggered, Retries the transparent
	// re-routes that followed, NodeErrors the hard node failures
	// surfaced to callers.
	NotOwner     uint64 `json:"not_owner"`
	MapRefetches uint64 `json:"map_refetches"`
	Retries      uint64 `json:"retries"`
	NodeErrors   uint64 `json:"node_errors"`

	PerNode []ClusterNode `json:"per_node"`
}
