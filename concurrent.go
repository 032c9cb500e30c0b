package latest

import "time"

// NewConcurrent builds a thread-safe LATEST system over the given world
// and sliding-window span: the ShardedSystem with one shard, one module
// and one window store behind the shard's mutex. It is the shape for
// applications that fan queries out across request handlers; for parallel
// ingest across CPU cores, see NewSharded, which partitions the lock
// spatially. WithShards is rejected with a descriptive error.
func NewConcurrent(world Rect, window time.Duration, opts ...Option) (*ShardedSystem, error) {
	cfg := buildConfig(world, window, opts)
	if cfg.Shards != 0 {
		return nil, optionErr("WithShards", "NewConcurrent", "only a ShardedSystem partitions the world")
	}
	cfg.Shards = 1
	return newSharded(cfg)
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
