package latest

import (
	"context"

	"github.com/spatiotext/latest/internal/persist"
	"github.com/spatiotext/latest/internal/telemetry"
)

// TelemetryReport is the point-in-time engine view served by the /statusz
// endpoint and returned by TelemetrySnapshot: merged stats plus per-shard
// operational samples.
type TelemetryReport = telemetry.Snapshot

// Engine is the unified surface every LATEST engine serves: one feed call,
// one query path (plain or traced), a telemetry view and a shutdown. The
// ShardedSystem (spatial partitions, each behind its own mutex; New and
// NewConcurrent build it with one shard, New wrapped as a System)
// implements it, as does the DurableEngine decorator that adds snapshot +
// WAL persistence (NewDurable is the one way to persist an engine).
// Embedding applications, the network serving layer (internal/server) and
// the correctness harness (internal/check) program against this interface
// and work with any of them. Every engine is safe for concurrent use.
type Engine interface {
	// FeedBatch ingests a batch of stream objects in order; one object is
	// a batch of one. The batch has been applied when FeedBatch returns,
	// and the engine copies what it keeps: the caller may reuse objs and
	// its keyword arrays on return. Keyword strings are immutable.
	FeedBatch(objs []Object)
	// EstimateAndExecute answers the query approximately, then exactly,
	// and feeds the truth back to the switching model. It is
	// EstimateAndExecuteTraced with a nil trace.
	EstimateAndExecute(q *Query) (estimate float64, actual int)
	// EstimateAndExecuteTraced is EstimateAndExecute recording per-stage
	// spans — notably the active estimator's inference — into tr (nil tr:
	// identical to EstimateAndExecute).
	EstimateAndExecuteTraced(q *Query, tr *telemetry.ActiveTrace) (estimate float64, actual int)
	// TelemetrySnapshot returns the /statusz view: merged module stats
	// plus per-shard operational gauges.
	TelemetrySnapshot() TelemetryReport
	// Shutdown releases background resources gracefully, bounded by ctx.
	// On a DurableEngine it also takes a final snapshot, so a clean
	// shutdown loses nothing.
	Shutdown(ctx context.Context) error
}

// Compile-time interface checks: losing a method on any engine is a build
// error.
var (
	_ Engine = (*System)(nil)
	_ Engine = (*ShardedSystem)(nil)
	_ Engine = (*DurableEngine)(nil)
)

// Persistence surface, aliased from the internal implementation package so
// user code never imports internal paths.
type (
	// Store is where snapshots and write-ahead logs live: a directory on
	// disk (NewFileStore) or memory (NewMemStore, for tests).
	Store = persist.Store
	// MemStore is an in-memory Store for tests and ephemeral deployments.
	MemStore = persist.MemStore
	// FileStore is a directory-backed Store with atomic snapshot renames
	// and fsynced appends.
	FileStore = persist.FileStore
	// PersistError is the typed error every persistence failure surfaces
	// as; PersistCode extracts its code.
	PersistError = persist.Error
	// PersistErrorCode classifies persistence failures (corrupt artifact,
	// version skew, configuration mismatch, ...).
	PersistErrorCode = persist.ErrorCode
)

// Persistence error codes, re-exported for callers switching on
// PersistCode(err).
const (
	// CodeNotExist: the artifact does not exist (fresh data directory).
	CodeNotExist = persist.CodeNotExist
	// CodeCorrupt: a checksum failed — bit rot, torn write, tampering.
	CodeCorrupt = persist.CodeCorrupt
	// CodeVersionSkew: the artifact's format version is not understood.
	CodeVersionSkew = persist.CodeVersionSkew
	// CodeMalformed: structurally invalid content behind a valid checksum.
	CodeMalformed = persist.CodeMalformed
	// CodeTruncated: the artifact ends mid-structure.
	CodeTruncated = persist.CodeTruncated
	// CodeMismatch: the artifact was written under a different
	// configuration than the restoring engine's.
	CodeMismatch = persist.CodeMismatch
	// CodeState: the operation is invalid in the engine's current state
	// (restoring into a non-fresh engine, snapshotting mid-query).
	CodeState = persist.CodeState
)

// NewMemStore returns an empty in-memory Store.
func NewMemStore() *MemStore { return persist.NewMemStore() }

// NewFileStore opens (creating if needed) a directory-backed Store.
func NewFileStore(dir string) (*FileStore, error) { return persist.NewFileStore(dir) }

// OpenFileStore opens an existing directory-backed Store, returning a
// CodeNotExist error when the directory is missing — for deployments that
// must refuse to start from an empty data directory.
func OpenFileStore(dir string) (*FileStore, error) { return persist.OpenFileStore(dir) }

// PersistCode extracts the PersistErrorCode from err, or 0 when err is not
// a persistence error.
func PersistCode(err error) PersistErrorCode { return persist.CodeOf(err) }

// IsNotExist reports whether err means "no such artifact" — the expected
// first-boot condition, as opposed to a refusal.
func IsNotExist(err error) bool { return persist.IsNotExist(err) }
