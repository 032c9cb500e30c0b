package latest

import (
	"strings"
	"testing"
	"time"
)

// options_test.go pins the constructor-aware option surface: each engine
// shape accepts exactly the options it can honour, and every rejection
// shares one error shape naming the option, the constructor and the
// reason — silently ignoring WithTelemetry or WithShards would let a
// caller believe telemetry is served or shards exist when they do not.

func validWorld() (Rect, time.Duration) {
	return Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 10 * time.Second
}

// assertOptionRejected checks the rejection and its error shape.
func assertOptionRejected(t *testing.T, err error, option, constructor string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s accepted %s, want rejection", constructor, option)
	}
	msg := err.Error()
	if !strings.Contains(msg, option) || !strings.Contains(msg, "is not supported by "+constructor) {
		t.Fatalf("%s rejecting %s: error %q does not follow the \"<option> is not supported by <constructor> (<reason>)\" shape",
			constructor, option, msg)
	}
}

func TestNewRejectsConcurrencyOptions(t *testing.T) {
	world, win := validWorld()
	cases := []struct {
		option string
		opt    Option
	}{
		{"WithTelemetry", WithTelemetry("127.0.0.1:0")},
		{"WithShards", WithShards(4)},
	}
	for _, c := range cases {
		_, err := New(world, win, c.opt)
		assertOptionRejected(t, err, c.option, "New")
	}
}

func TestNewConcurrentRejectsShardOptions(t *testing.T) {
	world, win := validWorld()
	_, err := NewConcurrent(world, win, WithShards(4))
	assertOptionRejected(t, err, "WithShards", "NewConcurrent")
}

// TestConcurrentAcceptsTelemetry: the concurrency-safe shapes may serve
// /statusz while traffic flows; only the single-goroutine System refuses.
func TestConcurrentAcceptsTelemetry(t *testing.T) {
	world, win := validWorld()
	conc, err := NewConcurrent(world, win, WithTelemetry("127.0.0.1:0"))
	if err != nil {
		t.Fatalf("NewConcurrent rejected WithTelemetry: %v", err)
	}
	conc.Close()
	sh, err := NewSharded(world, win, WithShards(4), WithTelemetry("127.0.0.1:0"))
	if err != nil {
		t.Fatalf("NewSharded rejected WithTelemetry: %v", err)
	}
	sh.Close()
}

// TestShardedAcceptsShardOptions: the full option surface is legal on the
// sharded constructor.
func TestShardedAcceptsShardOptions(t *testing.T) {
	world, win := validWorld()
	sh, err := NewSharded(world, win, WithShards(4))
	if err != nil {
		t.Fatalf("NewSharded rejected its own options: %v", err)
	}
	sh.Close()
}
