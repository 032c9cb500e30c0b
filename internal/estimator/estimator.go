// Package estimator implements the six selectivity estimators the paper
// drives through LATEST (§IV, §VI-A):
//
//	H4096 — two-dimensional equi-width histogram (4096 cells)
//	RSL   — reservoir sampling list (Algorithm R over the window)
//	RSH   — reservoir sampling hashmap (reservoir indexed by a 2-D grid)
//	AASP  — augmented adaptive space-partitioning tree
//	FFN   — workload-driven feed-forward neural network
//	SPN   — data-driven sum-product network
//
// All estimators summarise the same sliding time window S_T and answer the
// same RC-DVQ interface; none stores the raw window (that is
// internal/stream's job). The package is deliberately orthogonal to the
// switching logic in internal/core: LATEST can drive any Estimator
// implementation registered with the Registry, including user-defined ones.
package estimator

import (
	"fmt"
	"sort"

	"github.com/spatiotext/latest/internal/geo"
	"github.com/spatiotext/latest/internal/stream"
)

// Estimator is a windowed RC-DVQ selectivity estimator. Implementations are
// single-goroutine: the stream driver owns them.
type Estimator interface {
	// Name identifies the estimator in model features, logs and figures.
	Name() string
	// Insert observes a stream object. Timestamps must be non-decreasing
	// across calls; estimators use them to expire their summaries. Insert
	// must not retain o or o.Keywords: an estimator copies what it keeps,
	// and the caller may reuse both on return — the window store feeds a
	// pre-fill from one scratch Object. Keyword strings are immutable and
	// may be kept as they are.
	Insert(o *stream.Object)
	// Estimate answers an RC-DVQ with an approximate count over the window
	// ending at q.Timestamp.
	Estimate(q *stream.Query) float64
	// Observe feeds back the true selectivity of an executed query — the
	// paper's system-log signal. Workload-driven estimators (FFN) learn
	// from it; structural estimators ignore it.
	Observe(q *stream.Query, actual float64)
	// Reset wipes the estimator back to empty. The paper wipes all inactive
	// estimators after pre-training (§V-C) and pre-fills fresh ones before
	// a switch (§V-D).
	Reset()
	// MemoryBytes approximates the summary's current footprint.
	MemoryBytes() int
}

// Params carries the environment every estimator factory needs.
type Params struct {
	// World is the spatial domain.
	World geo.Rect
	// Span is the time window T in virtual milliseconds.
	Span int64
	// Scale multiplies every capacity default; the memory-budget experiment
	// (Fig. 13) sweeps it. Zero means 1.
	Scale float64
	// Seed feeds the estimators' internal randomness (reservoir choices,
	// network init) so runs are reproducible.
	Seed int64
}

func (p Params) scale() float64 {
	if p.Scale <= 0 {
		return 1
	}
	return p.Scale
}

// scaledInt returns n scaled by the memory budget, floored at lo.
func (p Params) scaledInt(n, lo int) int {
	v := int(float64(n) * p.scale())
	if v < lo {
		return lo
	}
	return v
}

// Factory builds a fresh estimator.
type Factory func(p Params) Estimator

// Registry maps estimator names to factories. LATEST consults it to build
// its fleet; callers may register their own estimators (the paper's §IV
// notes administrators can pick any estimator set).
type Registry struct {
	factories map[string]Factory
	order     []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]Factory)}
}

// Register adds a factory under name, preserving registration order.
// Registering a duplicate name panics: silently replacing an estimator
// would corrupt trained model labels.
func (r *Registry) Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("estimator: Register requires a name and a factory")
	}
	if _, dup := r.factories[name]; dup {
		panic(fmt.Sprintf("estimator: duplicate registration of %q", name))
	}
	r.factories[name] = f
	r.order = append(r.order, name)
}

// Names returns the registered names in registration order.
func (r *Registry) Names() []string {
	return append([]string(nil), r.order...)
}

// Build constructs the named estimator, or an error for unknown names.
func (r *Registry) Build(name string, p Params) (Estimator, error) {
	f, ok := r.factories[name]
	if !ok {
		known := append([]string(nil), r.order...)
		sort.Strings(known)
		return nil, fmt.Errorf("estimator: unknown estimator %q (registered: %v)", name, known)
	}
	return f(p), nil
}

// BuildAll constructs every registered estimator in registration order.
func (r *Registry) BuildAll(p Params) []Estimator {
	out := make([]Estimator, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.factories[name](p))
	}
	return out
}

// DefaultRegistry returns a registry pre-loaded with the paper's six
// estimators under their paper names.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	r.Register(NameH4096, func(p Params) Estimator { return NewHistogram(p) })
	r.Register(NameRSL, func(p Params) Estimator { return NewReservoirList(p) })
	r.Register(NameRSH, func(p Params) Estimator { return NewReservoirHashmap(p) })
	r.Register(NameAASP, func(p Params) Estimator { return NewAASP(p) })
	r.Register(NameFFN, func(p Params) Estimator { return NewFFN(p) })
	r.Register(NameSPN, func(p Params) Estimator { return NewSPN(p) })
	return r
}

// Canonical estimator names as used throughout the paper's figures.
const (
	NameH4096 = "H4096"
	NameRSL   = "RSL"
	NameRSH   = "RSH"
	NameAASP  = "AASP"
	NameFFN   = "FFN"
	NameSPN   = "SPN"
)

// scaleOf exposes the effective memory scale to estimator constructors.
func scaleOf(p Params) float64 { return p.scale() }
