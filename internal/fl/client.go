// Package fl implements the federated-learning simulator of the paper
// (§2.1, §3.2, Algorithm 2): clients performing local SGD on their
// private shards, a server aggregating flat weight vectors through a
// pluggable Aggregator (FedAvg's Eq. 1, FedProx, or FedDRL's Eq. 4),
// the SingleSet centralized baseline, and per-round metrics (top-1 test
// accuracy, per-client inference-loss statistics, and the server-side
// timing split of Fig. 9).
//
// A federation's clients are a ClientPool: each client is a (seed,
// index-recipe) identity materialized into one of K reusable slots only
// while selected, so memory stays O(K) even when simulating millions of
// clients. RunAsync is the one round loop: a seeded virtual clock and
// arrival event queue deliver client updates, with pluggable
// straggler/dropout traces (ArrivalModel) and staleness-decay-weighted
// merging. RunVirtual, the paper's synchronous loop, is its
// instant-arrival case. NewClient/BuildClients build standalone clients
// for callers that drive Client.Run themselves.
package fl

import (
	"fmt"

	"feddrl/internal/dataset"
	"feddrl/internal/nn"
	"feddrl/internal/rng"
	"feddrl/internal/tensor"
)

// clientSeedStride spaces per-client model seeds (BuildClients and
// ClientPool derive client i's seed as base + i*stride); clientRNGSalt
// decorrelates a client's data-order RNG from its weight-init stream.
// Both constants are part of the determinism contract: a pooled identity
// and a standalone client built for the same id derive identical
// streams.
const (
	clientSeedStride = 0x9e3779b9
	clientRNGSalt    = 0x5bd1e995
)

// clientSeed returns client id's model seed under a run's base seed.
func clientSeed(base uint64, id int) uint64 {
	return base + uint64(id)*clientSeedStride
}

// LocalConfig is the client-side solver configuration. The paper uses
// SGD with E = 5 local epochs, batch size b = 10 and learning rate 0.01
// for every experiment (§4.1.2); FedProx clients add ProxMu = 0.01.
type LocalConfig struct {
	Epochs int
	Batch  int
	LR     float64
	// ProxMu enables the FedProx proximal term μ/2·‖w − w_global‖².
	ProxMu float64
}

// Validate panics on an inconsistent local configuration.
func (lc LocalConfig) Validate() {
	if lc.Epochs <= 0 || lc.Batch <= 0 || lc.LR <= 0 || lc.ProxMu < 0 {
		panic(fmt.Sprintf("fl: invalid local config %+v", lc))
	}
}

// Update is the tuple p_k^t a client uploads after local training
// (Algorithm 2 line 11): the global-model inference loss l_b, the local
// model's post-training loss l_a, the sample count n_k and the trained
// weights w_k^t. Exactly one of Weights/Weights32 is set, per the run's
// Precision: f64 rounds carry Weights, f32 rounds carry the half-width
// Weights32 (4 bytes per weight on the wire).
type Update struct {
	ClientID   int
	N          int
	LossBefore float64
	LossAfter  float64
	Weights    []float64
	Weights32  []float32
}

// Client owns a private shard and a reusable model instance. Clients are
// deterministic: all randomness flows from the seed given at
// construction, so parallel and sequential execution produce identical
// results.
//
// Each client also owns a scratch arena (nn.Scratch), its loss scratch
// and its minibatch/permutation buffers, so across rounds of a grid
// cell the warm train steps and inference passes reuse the same memory
// instead of re-allocating every activation.
//
// Data is the shard-access interface, not a concrete dataset: a
// standalone client holds a zero-copy dataset.View of the shared
// training set (or a private *dataset.Dataset), and a ClientPool slot is
// rebound to a new identity's view each round.
type Client struct {
	ID   int
	Data dataset.Data

	model   *nn.Network
	r       *rng.RNG
	scratch *nn.Scratch
	ce      *nn.CrossEntropy
	perm    []int
	xb      *tensor.Tensor
	yb      []int
	// eval is the client's one-lane chunked-evaluation arena (aliasing
	// model/ce/scratch) and sums its per-chunk partial-sum scratch, so
	// the per-round inference passes allocate nothing in steady state.
	eval []*evalLane
	sums evalSums
}

// newClientCore builds a client's reusable state — model, RNG, scratch
// arenas — without binding an identity or shard. Shared by NewClient and
// ClientPool slots.
func newClientCore(factory nn.Factory, seed uint64) *Client {
	c := &Client{
		model:   factory(seed),
		r:       rng.New(seed ^ clientRNGSalt),
		scratch: nn.NewScratch(),
		ce:      nn.NewCrossEntropy(),
	}
	c.eval = []*evalLane{{model: c.model, ce: c.ce, scratch: c.scratch}}
	return c
}

// NewClient builds a client over its shard. factory instantiates the
// globally agreed model architecture. data may be a *dataset.Dataset or
// a zero-copy *dataset.View; training only reads it.
func NewClient(id int, data dataset.Data, factory nn.Factory, seed uint64) *Client {
	if data == nil {
		panic("fl: NewClient with nil data")
	}
	c := newClientCore(factory, seed)
	c.ID = id
	c.Data = data
	return c
}

// evalChunk bounds the batch size of full-dataset evaluation passes.
const evalChunk = 128

// EvalLoss returns the mean cross-entropy of the model on d (the
// inference pass of Algorithm 2 lines 7 and 10). It returns 0 for an
// empty dataset.
func EvalLoss(m *nn.Network, d *dataset.Dataset) float64 {
	loss, _ := EvalLossAcc(m, d)
	return loss
}

// EvalLossAcc returns mean loss and top-1 accuracy of the model on d.
// It is the sequential reference kernel and allocates its loss scratch
// per call; hot paths (the round loop, SingleSet, client inference) go
// through the persistent arenas of Evaluator and Client instead, which
// are bit-identical to this by construction.
func EvalLossAcc(m *nn.Network, d *dataset.Dataset) (loss, acc float64) {
	if d.N == 0 {
		return 0, 0
	}
	var sums evalSums
	return evalChunked([]*evalLane{{model: m, ce: nn.NewCrossEntropy()}}, d, nil, &sums)
}

// evalLoss is the client's arena-backed inference pass: the same chunk
// walk as EvalLoss, reusing the client's model scratch and loss buffers
// round over round.
func (c *Client) evalLoss() float64 {
	if c.Data.Len() == 0 {
		return 0
	}
	loss, _ := evalChunked(c.eval, c.Data, nil, &c.sums)
	return loss
}

// Run performs one communication round on the client (Algorithm 2 lines
// 6–11): load the global weights, measure the inference loss, train for
// E local epochs of minibatch SGD (optionally with the FedProx term), and
// return the update tuple with full-width weights.
func (c *Client) Run(global []float64, lc LocalConfig) Update {
	return c.run(global, lc, F64)
}

func (c *Client) run(global []float64, lc LocalConfig, prec Precision) Update {
	lc.Validate()
	c.model.SetParamVector(global)
	n := c.Data.Len()
	u := Update{ClientID: c.ID, N: n}
	if n == 0 {
		// Degenerate shard: return the global weights unchanged so the
		// aggregation stays well-defined. In f32 mode the quantization is
		// exact — the broadcast vector is on the float32 lattice.
		if prec == F32 {
			u.Weights32 = tensor.Quantize(nil, global)
		} else {
			u.Weights = append([]float64(nil), global...)
		}
		return u
	}
	u.LossBefore = c.evalLoss()

	opt := nn.NewSGD(lc.LR)
	if lc.ProxMu > 0 {
		opt.ProxMu = lc.ProxMu
		opt.ProxRef = global
	}
	dim := c.Data.FeatureDim()
	batch := lc.Batch
	if batch > n {
		batch = n
	}
	if c.xb == nil || c.xb.Rows() != batch || c.xb.Cols() != dim {
		c.xb = tensor.New(batch, dim)
	}
	if cap(c.yb) < batch {
		c.yb = make([]int, batch)
	}
	if cap(c.perm) < n {
		c.perm = make([]int, n)
	}
	xb, yb, perm := c.xb, c.yb[:batch], c.perm[:n]
	for e := 0; e < lc.Epochs; e++ {
		c.r.PermInto(perm)
		for start := 0; start+batch <= n; start += batch {
			for bi := 0; bi < batch; bi++ {
				idx := perm[start+bi]
				copy(xb.Row(bi), c.Data.Sample(idx))
				yb[bi] = c.Data.Label(idx)
			}
			c.ce.Forward(c.model.ForwardScratch(c.scratch, xb, true), yb)
			c.model.ZeroGrads()
			c.model.BackwardParams(c.scratch, c.ce.Backward())
			opt.Step(c.model)
		}
	}
	u.LossAfter = c.evalLoss()
	if prec == F32 {
		u.Weights32 = c.model.ParamVector32()
	} else {
		u.Weights = c.model.ParamVector()
	}
	return u
}
