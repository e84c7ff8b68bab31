// Package nn is a from-scratch neural-network library: the substrate the
// FedDRL reproduction trains with, replacing the paper's PyTorch 1.8.1.
// It provides the layers needed for the paper's client models (the simple
// CNN for MNIST/Fashion-MNIST and a scaled VGG for CIFAR-100, §4.1.2) and
// for the DRL agent's policy and value networks (3 fully connected layers
// of 256 units with LeakyReLU, Table 1): dense and convolutional layers,
// pooling, activations, softmax cross-entropy and MSE losses, and SGD
// (with the FedProx proximal term) and Adam optimizers.
//
// Gradients are computed by hand-derived backpropagation; every layer's
// Backward is validated against central finite differences in the tests.
// Layers are stateful across a Forward/Backward pair (they cache
// activations) and are not safe for concurrent use; federated clients
// therefore each own their model instance.
package nn

import (
	"fmt"
	"math"

	"feddrl/internal/rng"
	"feddrl/internal/tensor"
)

// Layer is one differentiable stage of a Network. Forward consumes a
// (batch, features) activation and returns the next activation; Backward
// consumes dLoss/dOutput and returns dLoss/dInput, accumulating parameter
// gradients internally (retrieved via Grads, cleared via Network.ZeroGrads).
type Layer interface {
	// Forward computes the layer output. train reports whether the pass
	// is part of training (affects nothing today but keeps the door open
	// for dropout/batch-norm extensions).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward computes the input gradient from the output gradient and
	// accumulates parameter gradients.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's parameter tensors (possibly empty).
	Params() []*tensor.Tensor
	// Grads returns the gradient tensors, aligned with Params.
	Grads() []*tensor.Tensor
}

// Dense is a fully connected layer: y = x·W + b.
type Dense struct {
	In, Out int
	W, B    *tensor.Tensor
	dW, dB  *tensor.Tensor

	lastX *tensor.Tensor
}

// NewDense returns a Dense layer with He-normal initialized weights
// (suited to the ReLU-family activations used throughout the paper) and
// zero biases.
func NewDense(r *rng.RNG, in, out int) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: Dense with non-positive dims (%d,%d)", in, out))
	}
	d := &Dense{
		In: in, Out: out,
		W:  tensor.New(in, out),
		B:  tensor.New(1, out),
		dW: tensor.New(in, out),
		dB: tensor.New(1, out),
	}
	std := math.Sqrt(2.0 / float64(in))
	for i := range d.W.Data {
		d.W.Data[i] = r.Normal(0, std)
	}
	return d
}

// Forward computes y = x·W + b for a (batch, In) input.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return d.ForwardScratch(nil, 0, x, train)
}

// ForwardScratch is Forward writing into an arena slot.
func (d *Dense) ForwardScratch(sc *Scratch, id int, x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Cols() != d.In {
		panic(fmt.Sprintf("nn: Dense.Forward input width %d, want %d", x.Cols(), d.In))
	}
	d.lastX = x
	out := sc.tensor2D(id, 0, x.Rows(), d.Out)
	tensor.MatMulInto(out, x, d.W)
	for i := 0; i < out.Rows(); i++ {
		tensor.Add(d.B.Data, out.Row(i))
	}
	return out
}

// Backward accumulates dW = xᵀ·g, dB = Σ_batch g and returns dx = g·Wᵀ.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return d.BackwardScratch(nil, 0, grad)
}

// BackwardScratch is Backward with arena-backed temporaries.
func (d *Dense) BackwardScratch(sc *Scratch, id int, grad *tensor.Tensor) *tensor.Tensor {
	return d.backward(sc, id, grad, true)
}

// backward accumulates dW and dB and, when needIn is set, returns
// dx = g·Wᵀ (nil otherwise: Network.BackwardParams).
func (d *Dense) backward(sc *Scratch, id int, grad *tensor.Tensor, needIn bool) *tensor.Tensor {
	if d.lastX == nil {
		panic("nn: Dense.Backward before Forward")
	}
	if grad.Rows() != d.lastX.Rows() || grad.Cols() != d.Out {
		panic(fmt.Sprintf("nn: Dense.Backward grad shape %v", grad.Shape))
	}
	dW := sc.tensor2D(id, 1, d.In, d.Out)
	tensor.MatMulATInto(dW, d.lastX, grad)
	d.dW.AddInPlace(dW)
	for i := 0; i < grad.Rows(); i++ {
		tensor.Add(grad.Row(i), d.dB.Data)
	}
	if !needIn {
		return nil
	}
	dx := sc.tensor2D(id, 2, grad.Rows(), d.In)
	tensor.MatMulBTInto(dx, grad, d.W)
	return dx
}

// Params returns [W, B].
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.W, d.B} }

// Grads returns [dW, dB].
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.dW, d.dB} }

// ReLU is the rectified linear activation. Like LeakyReLU it caches the
// forward input and re-derives the pass-through mask in Backward from
// the sign of x via the vectorized kernels (tensor.ReLUForward/
// ReLUBackward), instead of materializing a []bool mask.
type ReLU struct{ lastX *tensor.Tensor }

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies max(0, x) elementwise.
func (l *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return l.ForwardScratch(nil, 0, x, train)
}

// ForwardScratch is Forward writing into an arena slot.
func (l *ReLU) ForwardScratch(sc *Scratch, id int, x *tensor.Tensor, train bool) *tensor.Tensor {
	l.lastX = x
	out := sc.tensor2D(id, 0, x.Rows(), x.Cols())
	tensor.ReLUForward(x.Data, out.Data)
	return out
}

// Backward zeroes gradients where the input was non-positive.
func (l *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return l.BackwardScratch(nil, 0, grad)
}

// BackwardScratch is Backward writing into an arena slot.
func (l *ReLU) BackwardScratch(sc *Scratch, id int, grad *tensor.Tensor) *tensor.Tensor {
	if l.lastX == nil || len(l.lastX.Data) != len(grad.Data) {
		panic("nn: ReLU.Backward shape mismatch with Forward")
	}
	out := sc.tensor2D(id, 1, grad.Rows(), grad.Cols())
	tensor.ReLUBackward(l.lastX.Data, grad.Data, out.Data)
	return out
}

// Params returns no parameters.
func (l *ReLU) Params() []*tensor.Tensor { return nil }

// Grads returns no gradients.
func (l *ReLU) Grads() []*tensor.Tensor { return nil }

// LeakyReLU is the leaky rectified linear activation used by the paper's
// policy and value networks (Fig. 3c).
type LeakyReLU struct {
	Alpha float64
	lastX *tensor.Tensor
}

// NewLeakyReLU returns a LeakyReLU with the given negative slope. The
// conventional default (and the one used for the DRL networks) is 0.01.
func NewLeakyReLU(alpha float64) *LeakyReLU {
	if alpha < 0 || alpha >= 1 {
		panic(fmt.Sprintf("nn: LeakyReLU alpha %v out of [0,1)", alpha))
	}
	return &LeakyReLU{Alpha: alpha}
}

// Forward applies x>0 ? x : alpha*x elementwise.
func (l *LeakyReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return l.ForwardScratch(nil, 0, x, train)
}

// ForwardScratch is Forward writing into an arena slot.
func (l *LeakyReLU) ForwardScratch(sc *Scratch, id int, x *tensor.Tensor, train bool) *tensor.Tensor {
	l.lastX = x
	out := sc.tensor2D(id, 0, x.Rows(), x.Cols())
	tensor.LeakyReLUForward(l.Alpha, x.Data, out.Data)
	return out
}

// Backward scales gradients by alpha where the input was negative.
func (l *LeakyReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return l.BackwardScratch(nil, 0, grad)
}

// BackwardScratch is Backward writing into an arena slot.
func (l *LeakyReLU) BackwardScratch(sc *Scratch, id int, grad *tensor.Tensor) *tensor.Tensor {
	if l.lastX == nil || len(l.lastX.Data) != len(grad.Data) {
		panic("nn: LeakyReLU.Backward shape mismatch with Forward")
	}
	out := sc.tensor2D(id, 1, grad.Rows(), grad.Cols())
	tensor.LeakyReLUBackward(l.Alpha, l.lastX.Data, grad.Data, out.Data)
	return out
}

// Params returns no parameters.
func (l *LeakyReLU) Params() []*tensor.Tensor { return nil }

// Grads returns no gradients.
func (l *LeakyReLU) Grads() []*tensor.Tensor { return nil }

// Tanh is the hyperbolic tangent activation (used to bound the policy
// network's mean head).
type Tanh struct{ lastY *tensor.Tensor }

// NewTanh returns a Tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh elementwise.
func (l *Tanh) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return l.ForwardScratch(nil, 0, x, train)
}

// ForwardScratch is Forward writing into an arena slot.
func (l *Tanh) ForwardScratch(sc *Scratch, id int, x *tensor.Tensor, train bool) *tensor.Tensor {
	out := sc.tensor2D(id, 0, x.Rows(), x.Cols())
	for i, v := range x.Data {
		out.Data[i] = math.Tanh(v)
	}
	l.lastY = out
	return out
}

// Backward multiplies by 1 - tanh² of the input.
func (l *Tanh) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return l.BackwardScratch(nil, 0, grad)
}

// BackwardScratch is Backward writing into an arena slot.
func (l *Tanh) BackwardScratch(sc *Scratch, id int, grad *tensor.Tensor) *tensor.Tensor {
	if l.lastY == nil || len(l.lastY.Data) != len(grad.Data) {
		panic("nn: Tanh.Backward shape mismatch with Forward")
	}
	out := sc.tensor2D(id, 1, grad.Rows(), grad.Cols())
	for i, y := range l.lastY.Data {
		out.Data[i] = grad.Data[i] * (1 - y*y)
	}
	return out
}

// Params returns no parameters.
func (l *Tanh) Params() []*tensor.Tensor { return nil }

// Grads returns no gradients.
func (l *Tanh) Grads() []*tensor.Tensor { return nil }
