package dnn

import (
	"fmt"

	"repro/internal/gpusim"
)

// Backward pass of the dense tower, completing the training extension: with
// embedding backward (internal/sched) and MLP backward, the whole
// recommendation model trains through the same code paths the inference
// benchmarks exercise.

// LinearGrads holds one layer's parameter gradients.
type LinearGrads struct {
	W []float32 // In*Out
	B []float32 // Out
}

// Backward computes the layer gradients: x is the layer input (batch*In), y
// its forward output (batch*Out, used for the ReLU mask), dy the upstream
// gradient (batch*Out). Returns the gradient w.r.t. x plus parameter grads.
func (l *Linear) Backward(x, y, dy []float32, batch int) ([]float32, LinearGrads, error) {
	var g LinearGrads
	if len(x) != batch*l.In || len(y) != batch*l.Out || len(dy) != batch*l.Out {
		return nil, g, fmt.Errorf("dnn: backward shapes: x %d, y %d, dy %d for batch %d (%dx%d)",
			len(x), len(y), len(dy), batch, l.In, l.Out)
	}
	g.W = make([]float32, l.In*l.Out)
	g.B = make([]float32, l.Out)
	dx := make([]float32, batch*l.In)
	for r := 0; r < batch; r++ {
		xi := x[r*l.In : (r+1)*l.In]
		yo := y[r*l.Out : (r+1)*l.Out]
		dyo := dy[r*l.Out : (r+1)*l.Out]
		dxi := dx[r*l.In : (r+1)*l.In]
		for j := 0; j < l.Out; j++ {
			d := dyo[j]
			if l.ReLU && yo[j] <= 0 {
				continue
			}
			g.B[j] += d
			for i := 0; i < l.In; i++ {
				g.W[i*l.Out+j] += xi[i] * d
				dxi[i] += l.W[i*l.Out+j] * d
			}
		}
	}
	return dx, g, nil
}

// ForwardActivations runs the tower and returns every layer's input plus the
// final output: activations[0] is x, activations[i] the output of layer i-1.
func (m *MLP) ForwardActivations(x []float32, batch int) ([][]float32, error) {
	acts := make([][]float32, 0, len(m.Layers)+1)
	acts = append(acts, x)
	cur := x
	for _, l := range m.Layers {
		y, err := l.Forward(cur, batch)
		if err != nil {
			return nil, err
		}
		acts = append(acts, y)
		cur = y
	}
	return acts, nil
}

// Backward backpropagates dy through the tower. activations must come from
// ForwardActivations on the same input. Returns the gradient w.r.t. the
// tower input and per-layer parameter gradients.
func (m *MLP) Backward(activations [][]float32, dy []float32, batch int) ([]float32, []LinearGrads, error) {
	if len(activations) != len(m.Layers)+1 {
		return nil, nil, fmt.Errorf("dnn: %d activations for %d layers", len(activations), len(m.Layers))
	}
	grads := make([]LinearGrads, len(m.Layers))
	cur := dy
	for i := len(m.Layers) - 1; i >= 0; i-- {
		dx, g, err := m.Layers[i].Backward(activations[i], activations[i+1], cur, batch)
		if err != nil {
			return nil, nil, fmt.Errorf("dnn: layer %d: %w", i, err)
		}
		grads[i] = g
		cur = dx
	}
	return cur, grads, nil
}

// SGD applies one gradient step with the given learning rate.
func (m *MLP) SGD(grads []LinearGrads, lr float32) error {
	if len(grads) != len(m.Layers) {
		return fmt.Errorf("dnn: %d gradients for %d layers", len(grads), len(m.Layers))
	}
	for i, l := range m.Layers {
		if len(grads[i].W) != len(l.W) || len(grads[i].B) != len(l.B) {
			return fmt.Errorf("dnn: layer %d gradient shape mismatch", i)
		}
		for j := range l.W {
			l.W[j] -= lr * grads[i].W[j]
		}
		for j := range l.B {
			l.B[j] -= lr * grads[i].B[j]
		}
	}
	return nil
}

// MeasureTowerBackward simulates the GPU cost of the tower's backward pass:
// per layer, two GEMMs (dW = x^T·dy and dx = dy·W^T) of the forward shape.
func MeasureTowerBackward(batch, inDim int, hidden []int, dev *gpusim.Device) (float64, error) {
	total := 0.0
	in := inDim
	for _, h := range hidden {
		for i := 0; i < 2; i++ {
			k := GEMMKernel(batch, in, h, dev)
			k.Name += "_bwd"
			k.IncludeLaunchOverhead = true
			r, err := gpusim.Simulate(dev, &k)
			if err != nil {
				return 0, err
			}
			total += r.Time
		}
		in = h
	}
	return total, nil
}
