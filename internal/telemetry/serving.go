package telemetry

// serving.go holds the serving-layer slice of a telemetry Snapshot: the
// connection, byte and request counters plus per-operation latency
// histograms that internal/frontend publishes through the same /metrics and
// /statusz endpoints as the engine gauges. The types live here (below that
// package in the dependency order) so the exposition renderer does
// not need to import the serving layer to describe it.

// ServerOp is one request type's serving statistics.
type ServerOp struct {
	// Op names the operation ("feed", "estimate", "query", "ping").
	Op string `json:"op"`
	// Requests counts requests answered successfully.
	Requests uint64 `json:"requests"`
	// Latency is the server-side request latency distribution, measured
	// from frame decode to response enqueue.
	Latency HistSnapshot `json:"latency"`
}

// ServerErrors counts typed request rejections by wire error code.
type ServerErrors struct {
	Malformed    uint64 `json:"malformed"`
	TooLarge     uint64 `json:"too_large"`
	VersionSkew  uint64 `json:"version_skew"`
	UnknownType  uint64 `json:"unknown_type"`
	Backpressure uint64 `json:"backpressure"`
	Draining     uint64 `json:"draining"`
	Deadline     uint64 `json:"deadline_exceeded"`
	Internal     uint64 `json:"internal"`
	// NotOwner counts a clustered node's refusals of requests whose
	// objects or query footprint it does not own under its partition map
	// (the typed TErrNotOwner frame, not a wire.Code).
	NotOwner uint64 `json:"not_owner"`
}

// Total sums all rejection counters.
func (e ServerErrors) Total() uint64 {
	return e.Malformed + e.TooLarge + e.VersionSkew + e.UnknownType +
		e.Backpressure + e.Draining + e.Deadline + e.Internal + e.NotOwner
}

// ServerSample is the serving layer's slice of a Snapshot.
type ServerSample struct {
	// Addr is the bound wire-protocol listen address.
	Addr string `json:"addr"`
	// Draining is true once graceful shutdown has begun.
	Draining bool `json:"draining"`

	ConnsActive   int64  `json:"conns_active"`
	ConnsAccepted uint64 `json:"conns_accepted"`
	// ConnsRejected counts connections refused at the limit.
	ConnsRejected uint64 `json:"conns_rejected"`

	BytesIn   uint64 `json:"bytes_in"`
	BytesOut  uint64 `json:"bytes_out"`
	FramesIn  uint64 `json:"frames_in"`
	FramesOut uint64 `json:"frames_out"`

	// InFlight is the number of requests currently being served across
	// all connections.
	InFlight int64 `json:"in_flight"`
	// FeedObjects counts stream objects ingested through the wire.
	FeedObjects uint64 `json:"feed_objects"`
	// CoalescedFeeds counts pipelined feed frames that were merged into a
	// preceding frame's engine batch instead of paying their own engine
	// call.
	CoalescedFeeds uint64 `json:"coalesced_feeds"`

	Ops    []ServerOp   `json:"ops"`
	Errors ServerErrors `json:"errors"`

	// ConnDuration is the lifetime distribution of closed connections.
	ConnDuration HistSnapshot `json:"conn_duration"`

	// TracesSeen counts trace-flagged requests observed; TracesSampled
	// those retained in the /debug/requests ring.
	TracesSeen    uint64 `json:"traces_seen"`
	TracesSampled uint64 `json:"traces_sampled"`
}
