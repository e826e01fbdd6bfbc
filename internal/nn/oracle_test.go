package nn

import "math"

// The per-sample kernels the batched passes replaced, arithmetic and
// accumulation order untouched, kept as the reference the equivalence tests
// compare against bit for bit. Nothing outside the tests calls them. Their
// products carry gemm's explicit rounding (a no-op where the compiler does not
// fuse, amd64 included), so the comparison holds on every architecture.

// Forward computes y = Wx + b for one sample.
func (l *Linear) Forward(x []float64) []float64 {
	if len(x) != l.In {
		panic("nn: Linear forward dim mismatch")
	}
	y := make([]float64, l.Out)
	for o := 0; o < l.Out; o++ {
		s := l.B[o]
		row := l.W[o*l.In : (o+1)*l.In]
		for i, xi := range x {
			s += float64(row[i] * xi)
		}
		y[o] = s
	}
	return y
}

// Backward accumulates parameter gradients given one sample's layer input x
// and output gradient dy, and returns the input gradient dx.
func (l *Linear) Backward(x, dy []float64) []float64 {
	dx := make([]float64, l.In)
	for o := 0; o < l.Out; o++ {
		g := dy[o]
		l.GB[o] += g
		row := l.W[o*l.In : (o+1)*l.In]
		gw := l.GW[o*l.In : (o+1)*l.In]
		for i, xi := range x {
			gw[i] += float64(g * xi)
			dx[i] += float64(row[i] * g)
		}
	}
	return dx
}

// Cache stores the input to each layer (post-activation of the previous one)
// for backprop.
type Cache struct {
	inputs [][]float64
}

// Forward runs one sample through the network and returns the output plus
// the backprop cache.
func (m *MLP) Forward(x []float64) ([]float64, *Cache) {
	c := &Cache{}
	h := x
	for i, l := range m.Layers {
		c.inputs = append(c.inputs, h)
		h = l.Forward(h)
		if i+1 < len(m.Layers) {
			for j := range h {
				h[j] = math.Tanh(h[j])
			}
		}
	}
	return h, c
}

// Backward accumulates gradients for output gradient dy (mutated in place)
// using the cache from the matching Forward call, and returns the input
// gradient.
func (m *MLP) Backward(c *Cache, dy []float64) []float64 {
	g := dy
	for i := len(m.Layers) - 1; i >= 0; i-- {
		if i < len(m.Layers)-1 {
			// The cached input of layer i+1 is tanh(z_i); d tanh = 1 - tanh².
			act := c.inputs[i+1]
			for j := range g {
				g[j] *= 1 - act[j]*act[j]
			}
		}
		g = m.Layers[i].Backward(c.inputs[i], g)
	}
	return g
}

// Entropy returns the Shannon entropy of the distribution in nats.
func Entropy(probs []float64) float64 {
	h := 0.0
	for _, p := range probs {
		if p > 1e-12 {
			h -= p * math.Log(p)
		}
	}
	return h
}

// refEntropyGrad is the retired two-log form of EntropyGrad.
func refEntropyGrad(probs []float64) []float64 {
	h := Entropy(probs)
	g := make([]float64, len(probs))
	for i, p := range probs {
		if p > 1e-12 {
			g[i] = -p * (math.Log(p) + h)
		}
	}
	return g
}

// softmax is Softmax on a copy.
func softmax(logits []float64) []float64 {
	p := append([]float64(nil), logits...)
	Softmax(p, len(p))
	return p
}
