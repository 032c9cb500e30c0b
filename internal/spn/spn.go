// Package spn is a compact sum-product network over spatio-textual objects,
// standing in for the LibSPN model the paper uses as its data-driven SPN
// baseline (§VI-A). The network's structure is fixed and shallow but real:
//
//	root        — sum node over K mixture components
//	component c — product node over three groups of leaves:
//	                a histogram leaf for X, a histogram leaf for Y,
//	                and per-bucket Bernoulli leaves for keyword presence
//
// Training is hard EM over a sample of the current window: each sample is
// assigned to its maximum-likelihood component and leaf statistics are
// re-estimated with Laplace smoothing. Inference answers the RC-DVQ
// probability P(loc ∈ R ∧ kw ∩ W ≠ ∅) exactly under the model, which the
// SPN estimator scales by the live window size.
//
// The design deliberately mirrors the paper's findings for SPNs on streams:
// good static accuracy, inference cost linear in the component count
// (Fig. 13's linear latency growth), and an expensive full retrain whenever
// the window moves on.
package spn

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Sample is one training observation: a location normalized to [0,1)² and
// the set of keyword-hash buckets the object's keywords occupy.
type Sample struct {
	X, Y float64
	KwB  []int
}

// Config sizes the network.
type Config struct {
	// Components is K, the root sum node's fan-out. Zero means 4.
	Components int
	// XBins/YBins are the spatial leaf histogram resolutions. Zero means 32.
	XBins, YBins int
	// KwBuckets is the keyword-hash domain size. Zero means 64.
	KwBuckets int
	// EMIters is the number of hard-EM rounds per Train. Zero means 5.
	EMIters int
	// Seed makes component initialization reproducible.
	Seed int64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Components <= 0 {
		out.Components = 4
	}
	if out.XBins <= 0 {
		out.XBins = 32
	}
	if out.YBins <= 0 {
		out.YBins = 32
	}
	if out.KwBuckets <= 0 {
		out.KwBuckets = 64
	}
	if out.EMIters <= 0 {
		out.EMIters = 5
	}
	return out
}

// component is a product node: independent X, Y histograms and keyword
// Bernoullis.
type component struct {
	weight float64   // mixture weight at the root sum node
	histX  []float64 // P(X bin), sums to 1
	histY  []float64
	kwP    []float64 // P(object has a keyword in bucket b)
	n      float64   // samples assigned last E step
}

// Network is a trained SPN. The zero value is unusable; construct with New
// and call Train before Prob. Not safe for concurrent use.
type Network struct {
	cfg     Config
	comps   []component
	trained bool
}

// New allocates an untrained network.
func New(cfg Config) *Network {
	c := cfg.withDefaults()
	n := &Network{cfg: c, comps: make([]component, c.Components)}
	for i := range n.comps {
		n.comps[i] = component{
			weight: 1 / float64(c.Components),
			histX:  uniformHist(c.XBins),
			histY:  uniformHist(c.YBins),
			kwP:    make([]float64, c.KwBuckets),
		}
	}
	return n
}

func uniformHist(bins int) []float64 {
	h := make([]float64, bins)
	for i := range h {
		h[i] = 1 / float64(bins)
	}
	return h
}

// Trained reports whether Train has run at least once.
func (n *Network) Trained() bool { return n.trained }

// Components returns K.
func (n *Network) Components() int { return n.cfg.Components }

// Train fits the network to the sample set with hard EM. An empty sample
// set resets the network to its uniform prior.
func (n *Network) Train(samples []Sample) {
	c := n.cfg
	if len(samples) == 0 {
		for i := range n.comps {
			n.comps[i] = component{
				weight: 1 / float64(c.Components),
				histX:  uniformHist(c.XBins),
				histY:  uniformHist(c.YBins),
				kwP:    make([]float64, c.KwBuckets),
			}
		}
		n.trained = false
		return
	}
	rng := rand.New(rand.NewPCG(uint64(c.Seed), 0))
	// Init: spatial k-means++ assignment breaks symmetry robustly.
	// (Likelihood-seeded init collapses: samples far from every seed tie on
	// the uniform background and all fall into one component.)
	assign := kmeansInit(samples, c.Components, rng)
	logs := make([]component, len(n.comps))
	for iter := 0; iter < c.EMIters; iter++ {
		// M step: re-estimate each component from its members.
		n.mStep(samples, assign)
		if iter == c.EMIters-1 {
			break
		}
		// E step: hard-assign each sample to its most likely component.
		// Parameters are fixed for the step, so every logarithm a sample
		// could ask for is taken once per component, not once per sample.
		for ci := range n.comps {
			logs[ci].setLogOf(&n.comps[ci])
		}
		for si := range samples {
			best, bestLL := 0, math.Inf(-1)
			for ci := range logs {
				ll := n.logLik(&logs[ci], &samples[si])
				if ll > bestLL {
					best, bestLL = ci, ll
				}
			}
			assign[si] = best
		}
	}
	n.trained = true
}

// setLogOf makes lc the element-wise smoothed logarithm of c's parameters
// — the terms logLik sums — reusing lc's arrays.
func (lc *component) setLogOf(c *component) {
	lc.weight = math.Log(c.weight + 1e-12)
	lc.histX = logEach(lc.histX, c.histX, 1e-12)
	lc.histY = logEach(lc.histY, c.histY, 1e-12)
	lc.kwP = logEach(lc.kwP, c.kwP, 1e-3)
}

func logEach(dst, src []float64, eps float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(src))
	}
	for i, p := range src {
		dst[i] = math.Log(p + eps)
	}
	return dst
}

// kmeansInit returns an initial hard assignment from k-means++ seeding plus
// a few Lloyd iterations over the spatial coordinates.
func kmeansInit(samples []Sample, k int, rng *rand.Rand) []int {
	type pt struct{ x, y float64 }
	centers := make([]pt, 0, k)
	// k-means++ seeding.
	first := samples[rng.IntN(len(samples))]
	centers = append(centers, pt{first.X, first.Y})
	d2 := make([]float64, len(samples))
	for len(centers) < k {
		total := 0.0
		for i := range samples {
			best := math.Inf(1)
			for _, ct := range centers {
				dx, dy := samples[i].X-ct.x, samples[i].Y-ct.y
				if d := dx*dx + dy*dy; d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			// All samples coincide with existing centers; duplicate one.
			centers = append(centers, centers[0])
			continue
		}
		target := rng.Float64() * total
		acc := 0.0
		pick := len(samples) - 1
		for i, d := range d2 {
			acc += d
			if acc >= target {
				pick = i
				break
			}
		}
		centers = append(centers, pt{samples[pick].X, samples[pick].Y})
	}
	assign := make([]int, len(samples))
	for iter := 0; iter < 4; iter++ {
		for i := range samples {
			best, bestD := 0, math.Inf(1)
			for ci, ct := range centers {
				dx, dy := samples[i].X-ct.x, samples[i].Y-ct.y
				if d := dx*dx + dy*dy; d < bestD {
					best, bestD = ci, d
				}
			}
			assign[i] = best
		}
		var sx, sy = make([]float64, k), make([]float64, k)
		cnt := make([]float64, k)
		for i, a := range assign {
			sx[a] += samples[i].X
			sy[a] += samples[i].Y
			cnt[a]++
		}
		for ci := range centers {
			if cnt[ci] > 0 {
				centers[ci] = pt{sx[ci] / cnt[ci], sy[ci] / cnt[ci]}
			}
		}
	}
	return assign
}

func binOf(v float64, bins int) int {
	b := int(v * float64(bins))
	if b < 0 {
		b = 0
	} else if b >= bins {
		b = bins - 1
	}
	return b
}

// logLik is a component's log density of the sample (up to a shared
// constant: bin widths cancel across components), summed from the
// component's logarithms as setLogOf prepared them.
func (n *Network) logLik(lc *component, s *Sample) float64 {
	ll := lc.weight
	ll += lc.histX[binOf(s.X, n.cfg.XBins)]
	ll += lc.histY[binOf(s.Y, n.cfg.YBins)]
	for _, b := range s.KwB {
		ll += lc.kwP[b]
	}
	return ll
}

func (n *Network) mStep(samples []Sample, assign []int) {
	c := n.cfg
	for ci := range n.comps {
		comp := &n.comps[ci]
		comp.n = 0
		for i := range comp.histX {
			comp.histX[i] = 0
		}
		for i := range comp.histY {
			comp.histY[i] = 0
		}
		for i := range comp.kwP {
			comp.kwP[i] = 0
		}
	}
	for si := range samples {
		comp := &n.comps[assign[si]]
		comp.n++
		comp.histX[binOf(samples[si].X, c.XBins)]++
		comp.histY[binOf(samples[si].Y, c.YBins)]++
		for _, b := range samples[si].KwB {
			if b >= 0 && b < c.KwBuckets {
				comp.kwP[b]++
			}
		}
	}
	total := float64(len(samples))
	for ci := range n.comps {
		comp := &n.comps[ci]
		comp.weight = (comp.n + 1) / (total + float64(c.Components))
		normalizeLaplace(comp.histX, comp.n)
		normalizeLaplace(comp.histY, comp.n)
		for b := range comp.kwP {
			// Bernoulli presence probability with light smoothing.
			comp.kwP[b] = (comp.kwP[b] + 0.01) / (comp.n + 1)
			if comp.kwP[b] > 1 {
				comp.kwP[b] = 1
			}
		}
	}
}

func normalizeLaplace(h []float64, n float64) {
	denom := n + float64(len(h))
	for i := range h {
		h[i] = (h[i] + 1) / denom
	}
}

// RangeQuery describes the marginal event whose probability Prob computes.
// X/Y bounds are normalized to [0,1]; HasRange false marginalizes location
// out entirely, and empty KwB marginalizes keywords out.
type RangeQuery struct {
	XLo, XHi float64
	YLo, YHi float64
	HasRange bool
	KwB      []int
}

// Prob returns the model probability that a random window object satisfies
// the query: P(loc ∈ R ∧ kw ∩ W ≠ ∅), with each absent predicate
// marginalized to 1.
func (n *Network) Prob(q RangeQuery) float64 {
	total := 0.0
	for ci := range n.comps {
		comp := &n.comps[ci]
		p := comp.weight
		if q.HasRange {
			p *= histMass(comp.histX, q.XLo, q.XHi)
			p *= histMass(comp.histY, q.YLo, q.YHi)
		}
		if len(q.KwB) > 0 {
			// P(at least one bucket present) under bucket independence.
			miss := 1.0
			for _, b := range q.KwB {
				if b >= 0 && b < len(comp.kwP) {
					miss *= 1 - comp.kwP[b]
				}
			}
			p *= 1 - miss
		}
		total += p
	}
	if total < 0 {
		return 0
	}
	if total > 1 {
		return 1
	}
	return total
}

// histMass integrates a bin histogram over [lo, hi] ⊆ [0,1] with partial
// bins interpolated linearly.
func histMass(h []float64, lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	lo = math.Max(0, lo)
	hi = math.Min(1, hi)
	bins := float64(len(h))
	mass := 0.0
	for i, p := range h {
		bLo, bHi := float64(i)/bins, float64(i+1)/bins
		overlap := math.Min(hi, bHi) - math.Max(lo, bLo)
		if overlap > 0 {
			mass += p * overlap * bins
		}
	}
	return mass
}

// MemoryBytes approximates the model footprint: 8 bytes per parameter.
func (n *Network) MemoryBytes() int {
	per := n.cfg.XBins + n.cfg.YBins + n.cfg.KwBuckets + 2
	return 8 * per * n.cfg.Components
}

// String summarizes the trained structure for diagnostics.
func (n *Network) String() string {
	return fmt.Sprintf("spn{K=%d bins=%dx%d kw=%d trained=%v}",
		n.cfg.Components, n.cfg.XBins, n.cfg.YBins, n.cfg.KwBuckets, n.trained)
}
