package server

import (
	latest "github.com/spatiotext/latest"
)

// The production engines must satisfy the serving-layer Engine surface;
// Object and Query are aliases of the internal stream types, so the
// signatures line up without adapters. A compile failure here means a
// public engine method changed shape.
var (
	_ Engine = (*latest.ShardedSystem)(nil)
	_ Engine = (*latest.DurableEngine)(nil)
)
