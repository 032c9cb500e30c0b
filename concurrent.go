package latest

import "time"

// NewConcurrent builds the engine New builds — the ShardedSystem with one
// shard, one module and one window store behind the shard's mutex — without
// the System wrapper and its split Estimate/Execute calls. For parallel
// ingest across CPU cores, see NewSharded, which partitions the lock
// spatially. WithShards is rejected with a descriptive error.
//
// Deprecated: use NewSharded with WithShards(1). NewConcurrent stays until
// the benchmark drops its probe leg that calls it (ROADMAP item 1(a)).
func NewConcurrent(world Rect, window time.Duration, opts ...Option) (*ShardedSystem, error) {
	return newOneShard("NewConcurrent", buildConfig(world, window, opts))
}
