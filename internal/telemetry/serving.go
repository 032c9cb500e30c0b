package telemetry

import (
	"strconv"
	"strings"
)

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

// writeServerProm renders the latest_server_* metric families.
func writeServerProm(b *strings.Builder, s *ServerSample) {
	counter := func(name, help string) {
		b.WriteString("# HELP " + name + " " + help + "\n# TYPE " + name + " counter\n")
	}
	gauge := func(name, help string) {
		b.WriteString("# HELP " + name + " " + help + "\n# TYPE " + name + " gauge\n")
	}
	sample := func(name, labels string, v float64) {
		b.WriteString(name)
		if labels != "" {
			b.WriteString("{" + labels + "}")
		}
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		b.WriteByte('\n')
	}
	boolGauge := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}

	gauge("latest_server_draining", "1 while the server is draining for shutdown.")
	sample("latest_server_draining", "", boolGauge(s.Draining))
	gauge("latest_server_connections", "Currently open wire-protocol connections.")
	sample("latest_server_connections", "", float64(s.ConnsActive))
	counter("latest_server_connections_total", "Lifetime connection outcomes.")
	sample("latest_server_connections_total", `outcome="accepted"`, float64(s.ConnsAccepted))
	sample("latest_server_connections_total", `outcome="rejected"`, float64(s.ConnsRejected))
	counter("latest_server_bytes_total", "Wire bytes by direction.")
	sample("latest_server_bytes_total", `dir="in"`, float64(s.BytesIn))
	sample("latest_server_bytes_total", `dir="out"`, float64(s.BytesOut))
	counter("latest_server_frames_total", "Wire frames by direction.")
	sample("latest_server_frames_total", `dir="in"`, float64(s.FramesIn))
	sample("latest_server_frames_total", `dir="out"`, float64(s.FramesOut))
	gauge("latest_server_inflight", "Requests currently being served.")
	sample("latest_server_inflight", "", float64(s.InFlight))
	counter("latest_server_feed_objects_total", "Stream objects ingested over the wire.")
	sample("latest_server_feed_objects_total", "", float64(s.FeedObjects))
	counter("latest_server_coalesced_feeds_total", "Pipelined feed frames merged into one engine batch.")
	sample("latest_server_coalesced_feeds_total", "", float64(s.CoalescedFeeds))

	counter("latest_server_requests_total", "Successfully answered requests by operation.")
	for _, op := range s.Ops {
		sample("latest_server_requests_total", `op="`+op.Op+`"`, float64(op.Requests))
	}
	counter("latest_server_request_errors_total", "Typed request rejections by wire error code.")
	for _, e := range []struct {
		code string
		n    uint64
	}{
		{"malformed", s.Errors.Malformed},
		{"too_large", s.Errors.TooLarge},
		{"version_skew", s.Errors.VersionSkew},
		{"unknown_type", s.Errors.UnknownType},
		{"backpressure", s.Errors.Backpressure},
		{"draining", s.Errors.Draining},
		{"deadline_exceeded", s.Errors.Deadline},
		{"internal", s.Errors.Internal},
		{"not_owner", s.Errors.NotOwner},
	} {
		sample("latest_server_request_errors_total", `code="`+e.code+`"`, float64(e.n))
	}

	b.WriteString("# HELP latest_server_request_latency_seconds Server-side request latency by operation.\n" +
		"# TYPE latest_server_request_latency_seconds histogram\n")
	for _, op := range s.Ops {
		promHistogramOne(b, "latest_server_request_latency_seconds", `op="`+op.Op+`"`, op.Latency)
	}

	b.WriteString("# HELP latest_server_conn_duration_seconds Lifetime of closed wire connections.\n" +
		"# TYPE latest_server_conn_duration_seconds histogram\n")
	promHistogramOne(b, "latest_server_conn_duration_seconds", "", s.ConnDuration)

	counter("latest_server_traces_total", "Trace-flagged requests observed and retained for /debug/requests.")
	sample("latest_server_traces_total", `outcome="seen"`, float64(s.TracesSeen))
	sample("latest_server_traces_total", `outcome="sampled"`, float64(s.TracesSampled))
}
