// Package mlp is a minimal feed-forward neural network — dense layers,
// unipolar sigmoid activations and stochastic gradient descent with
// momentum — standing in for the WEKA MultilayerPerceptron the paper uses
// as its workload-driven FFN baseline (§VI-A: learning rate 0.3, momentum
// 0.2, unipolar sigmoid).
//
// The network regresses a single output in [0,1]; the FFN estimator feeds
// it normalized query features and rescales the output to a selectivity.
package mlp

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Config describes the network shape and trainer.
type Config struct {
	// Inputs is the input dimension.
	Inputs int
	// Hidden lists hidden-layer widths, e.g. {16, 8}.
	Hidden []int
	// Outputs is the output dimension (the FFN estimator uses 1).
	Outputs int
	// LearningRate for SGD; the paper's value is 0.3.
	LearningRate float64
	// Momentum coefficient; the paper's value is 0.2.
	Momentum float64
	// Seed for weight initialization, making runs reproducible.
	Seed int64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.LearningRate == 0 {
		out.LearningRate = 0.3
	}
	if out.Momentum == 0 {
		out.Momentum = 0.2
	}
	if out.Outputs == 0 {
		out.Outputs = 1
	}
	return out
}

// layer is a dense layer with sigmoid activation.
type layer struct {
	in, out int
	w       []float64 // out × in, row-major
	b       []float64 // out
	dw      []float64 // momentum buffers
	db      []float64

	// forward scratch
	z []float64 // pre-activation
	a []float64 // activation
	// backward scratch
	delta []float64
}

// Network is a feed-forward sigmoid network. Not safe for concurrent use.
type Network struct {
	cfg    Config
	layers []*layer
}

// New constructs a network with Xavier-style uniform initialization.
func New(cfg Config) *Network {
	c := cfg.withDefaults()
	if c.Inputs <= 0 || c.Outputs <= 0 {
		panic(fmt.Sprintf("mlp: need positive inputs/outputs, got %d/%d", c.Inputs, c.Outputs))
	}
	rng := rand.New(rand.NewPCG(uint64(c.Seed), 0))
	sizes := append([]int{c.Inputs}, c.Hidden...)
	sizes = append(sizes, c.Outputs)
	n := &Network{cfg: c}
	for i := 1; i < len(sizes); i++ {
		in, out := sizes[i-1], sizes[i]
		if in <= 0 || out <= 0 {
			panic(fmt.Sprintf("mlp: layer sizes must be positive, got %v", sizes))
		}
		l := &layer{
			in: in, out: out,
			w: make([]float64, out*in), b: make([]float64, out),
			dw: make([]float64, out*in), db: make([]float64, out),
			z: make([]float64, out), a: make([]float64, out),
			delta: make([]float64, out),
		}
		scale := math.Sqrt(6.0 / float64(in+out))
		for j := range l.w {
			l.w[j] = (rng.Float64()*2 - 1) * scale
		}
		n.layers = append(n.layers, l)
	}
	return n
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Forward runs inference and returns the output activations. The returned
// slice is owned by the network and valid until the next call.
func (n *Network) Forward(x []float64) []float64 {
	if len(x) != n.cfg.Inputs {
		panic(fmt.Sprintf("mlp: input dim %d, want %d", len(x), n.cfg.Inputs))
	}
	a := x
	for _, l := range n.layers {
		for o := 0; o < l.out; o++ {
			z := l.b[o]
			row := l.w[o*l.in : (o+1)*l.in]
			for i, v := range a {
				z += row[i] * v
			}
			l.z[o] = z
			l.a[o] = sigmoid(z)
		}
		a = l.a
	}
	return a
}

// Predict returns the first output for input x — the common single-output
// regression case.
func (n *Network) Predict(x []float64) float64 { return n.Forward(x)[0] }

// Train performs one SGD-with-momentum step on a single example and returns
// the example's pre-update squared error. Targets must be in (0,1) for the
// sigmoid output to reach them.
func (n *Network) Train(x, target []float64) float64 {
	out := n.Forward(x)
	if len(target) != len(out) {
		panic(fmt.Sprintf("mlp: target dim %d, want %d", len(target), len(out)))
	}
	// Output deltas: dE/dz = (a - t) * a * (1 - a) for MSE + sigmoid.
	last := n.layers[len(n.layers)-1]
	loss := 0.0
	for o := range out {
		err := out[o] - target[o]
		loss += err * err
		last.delta[o] = err * out[o] * (1 - out[o])
	}
	// Backpropagate deltas.
	for li := len(n.layers) - 2; li >= 0; li-- {
		l, next := n.layers[li], n.layers[li+1]
		for i := 0; i < l.out; i++ {
			sum := 0.0
			for o := 0; o < next.out; o++ {
				sum += next.w[o*next.in+i] * next.delta[o]
			}
			a := l.a[i]
			l.delta[i] = sum * a * (1 - a)
		}
	}
	// Apply gradients with momentum. The input to layer 0 is x; to layer k
	// it is layer k-1's activation.
	prev := x
	for _, l := range n.layers {
		lr, mom := n.cfg.LearningRate, n.cfg.Momentum
		for o := 0; o < l.out; o++ {
			d := l.delta[o]
			row := l.w[o*l.in : (o+1)*l.in]
			drow := l.dw[o*l.in : (o+1)*l.in]
			for i, v := range prev {
				step := -lr*d*v + mom*drow[i]
				drow[i] = step
				row[i] += step
			}
			step := -lr*d + mom*l.db[o]
			l.db[o] = step
			l.b[o] += step
		}
		prev = l.a
	}
	return loss
}

// fitPatience is how many consecutive non-improving epochs Fit tolerates
// before stopping. Generous enough to ride out the flat plateau sigmoid
// nets show early in training (XOR sits near loss 0.17 for dozens of
// epochs before breaking symmetry).
const fitPatience = 60

// Fit trains over the dataset for at most epochs passes, shuffling each
// epoch with the network's seed, and stops early once the mean epoch loss
// stops improving by more than tol (the paper trains "until the
// generalization gap stops shrinking"). It returns the epochs actually run
// and the final mean loss.
func (n *Network) Fit(xs [][]float64, ys [][]float64, epochs int, tol float64) (int, float64) {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("mlp: %d inputs vs %d targets", len(xs), len(ys)))
	}
	if len(xs) == 0 {
		return 0, 0
	}
	rng := rand.New(rand.NewPCG(uint64(n.cfg.Seed+1), 0))
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	best := math.Inf(1)
	stall := 0
	var mean float64
	e := 0
	for ; e < epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		total := 0.0
		for _, idx := range order {
			total += n.Train(xs[idx], ys[idx])
		}
		mean = total / float64(len(xs))
		if best-mean > tol {
			best = mean
			stall = 0
		} else {
			stall++
			if stall >= fitPatience {
				e++
				break
			}
		}
	}
	return e, mean
}

// NumParameters returns the total weight+bias count, a proxy for the FFN's
// memory footprint in the budget experiment.
func (n *Network) NumParameters() int {
	total := 0
	for _, l := range n.layers {
		total += len(l.w) + len(l.b)
	}
	return total
}
