package telemetry

import (
	"io"
	"log/slog"
	"math"
)

// Discard is the logger a component given none falls back to, so call
// sites never nil-check. No level enables its handler, so a call returns
// before any record is built. (slog.DiscardHandler needs Go 1.24.)
var Discard = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
