package latest

import "time"

// NewConcurrent builds the engine New builds — the ShardedSystem with one
// shard, one module and one window store behind the shard's mutex — without
// the System wrapper and its split Estimate/Execute calls. For parallel
// ingest across CPU cores, see NewSharded, which partitions the lock
// spatially. WithShards is rejected with a descriptive error.
func NewConcurrent(world Rect, window time.Duration, opts ...Option) (*ShardedSystem, error) {
	return newOneShard("NewConcurrent", buildConfig(world, window, opts))
}

// MustNewConcurrent is NewConcurrent but panics on error — for tests,
// examples and programs whose configuration is static.
func MustNewConcurrent(world Rect, window time.Duration, opts ...Option) *ShardedSystem {
	s, err := NewConcurrent(world, window, opts...)
	if err != nil {
		panic(err)
	}
	return s
}
