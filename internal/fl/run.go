package fl

import (
	"fmt"
	"math"
	"time"

	"feddrl/internal/dataset"
	"feddrl/internal/engine"
	"feddrl/internal/mathx"
	"feddrl/internal/metrics"
	"feddrl/internal/nn"
	"feddrl/internal/rng"
	"feddrl/internal/tensor"
)

// RunConfig configures a federated training run (Algorithm 2).
type RunConfig struct {
	// Rounds is the number of communication rounds T (1000 in §4.1.2;
	// experiments here scale it down).
	Rounds int
	// K is the number of participating clients per round (default 10,
	// §4.1.2). Clamped to the number of non-empty clients.
	K int
	// Local is the client solver configuration.
	Local LocalConfig
	// Factory instantiates the shared model architecture.
	Factory nn.Factory
	// Seed drives the server's randomness (initial weights, client
	// selection).
	Seed uint64
	// Workers bounds the round engine's parallelism: client local
	// training, test-set evaluation and the weight merge all run on one
	// bounded work-stealing pool with this many lanes. When the pool is
	// shared and saturated (an experiment grid occupying every lane),
	// these nested loops enqueue on the pool's deques and are stolen by
	// lanes as they free up, instead of degrading to serial execution.
	// 0 and 1 mean sequential. Results are bit-identical across every
	// Workers value because each client owns its RNG and the engine
	// reduces in deterministic order.
	Workers int
	// Pool optionally supplies a shared execution pool (the experiments
	// grid runner threads one pool through many concurrent cells, and
	// the work-stealing scheduler keeps this run's nested loops parallel
	// even while sibling cells hold every lane). When set it overrides
	// Workers and the caller owns its lifecycle; when nil, Run creates
	// and closes a pool of Workers lanes itself.
	Pool *engine.Pool
	// EvalEvery sets the test-evaluation cadence in rounds (default 1).
	EvalEvery int
	// Selector chooses the participating clients each round; nil means
	// uniform random selection (the paper's setting, §4.1.2).
	Selector Selector
	// Precision selects the federated-state width (see precision.go):
	// F32 makes clients upload float32 weights (half the wire bytes) and
	// the server merge in pure float32 arithmetic, with the global model
	// held on the float32 lattice. The zero value and F64 are bit-for-bit
	// the full-width behavior. Local training always runs in float64;
	// SingleSet (no federated exchange) ignores the knob.
	Precision Precision
	// Attack optionally injects Byzantine faults (see attack.go): a
	// seeded, identity-stable subset of clients corrupts its uploads
	// (or its local training data, for DataAttack implementations)
	// deterministically per (round, client). nil is the benign path,
	// bit-for-bit identical to runs predating the knob. SingleSet (no
	// clients) ignores it.
	Attack AttackModel
	// AttackSeed keys the attack's membership and corruption streams;
	// 0 derives Seed ^ attackSalt, so by default distinct runs see
	// distinct attack traces while an explicit seed replays one trace
	// across many run seeds.
	AttackSeed uint64
	// Merger selects the server-side merge rule (see merger.go). nil
	// means the default impact-factor convex combination, byte-identical
	// to the historical Aggregate path; Median/TrimmedMean/Krum trade
	// the aggregator's weighting for Byzantine robustness (the
	// aggregator still runs — its decision timings stay comparable —
	// but an order-statistic merger ignores the resulting factors).
	Merger Merger
	// Quarantine configures the server-ingress gate applied to client
	// uploads before they reach the aggregator (see QuarantineConfig).
	// The zero value screens non-finite uploads only.
	Quarantine QuarantineConfig
}

// QuarantineConfig is the server's upload-ingress gate: rather than
// folding a poisoned vector into the global model (one NaN coordinate
// contaminates everything), offending uploads are dropped from the
// round's merge cohort and counted in RoundMetrics.Quarantined. The
// gate never panics mid-run — that split is deliberate: Aggregate and
// friends panic on non-finite input (library misuse: the caller was
// supposed to screen), while the run loops quarantine and continue
// (runtime fault: a fault model or a diverging client produced the
// vector). If every upload of a round is quarantined the global model
// simply carries over unchanged.
type QuarantineConfig struct {
	// DisableFiniteCheck turns off the non-finite (NaN/±Inf) screen.
	// The zero value keeps it on — benign runs are unaffected because
	// the screen only reads.
	DisableFiniteCheck bool
	// MaxNorm additionally quarantines uploads whose L2 norm exceeds
	// it; 0 disables the norm screen.
	MaxNorm float64
}

// reject reports whether the gate drops u, screening whichever width
// it carries.
func (q QuarantineConfig) reject(u *Update) bool {
	if u.Weights32 != nil {
		return rejectVec(q, u.Weights32)
	}
	return rejectVec(q, u.Weights)
}

// rejectVec applies the finite and norm screens to one upload; the L2
// norm is folded sequentially in f64 at either width.
func rejectVec[E tensor.Elem](q QuarantineConfig, w []E) bool {
	if !q.DisableFiniteCheck && !AllFinite(w) {
		return true
	}
	if q.MaxNorm <= 0 {
		return false
	}
	var s float64
	for _, v := range w {
		x := float64(v)
		s += x * x
	}
	return math.Sqrt(s) > q.MaxNorm
}

// quarantineInto screens a cohort: survivors are appended to kept
// (cleared on entry) and the quarantined count is returned. When
// nothing is rejected the returned slice is the arrived slice itself,
// so the benign path hands the aggregator the exact historical value.
func quarantineInto(q QuarantineConfig, arrived []Update, kept []Update) ([]Update, int) {
	kept = kept[:0]
	quarantined := 0
	for i := range arrived {
		if q.reject(&arrived[i]) {
			quarantined++
		} else {
			kept = append(kept, arrived[i])
		}
	}
	if quarantined == 0 {
		return arrived, 0
	}
	return kept, quarantined
}

// Validate panics on an inconsistent run configuration.
func (c RunConfig) Validate() {
	if c.Rounds <= 0 || c.K <= 0 || c.Factory == nil {
		panic(fmt.Sprintf("fl: invalid run config %+v", c))
	}
	c.Local.Validate()
	if c.EvalEvery < 0 {
		panic("fl: negative EvalEvery")
	}
	if c.Workers < 0 {
		panic("fl: negative Workers")
	}
	c.Precision.Validate()
}

// RoundMetrics captures one communication round's measurements.
type RoundMetrics struct {
	Round int

	// Evaluated reports whether TestAcc/TestLoss were measured this round.
	Evaluated bool
	TestAcc   float64
	TestLoss  float64

	// Client inference-loss statistics over the round's participants,
	// measured on the fresh global model (the Fig. 6 robustness signal).
	ClientLossMean float64
	ClientLossVar  float64
	ClientLossMax  float64
	ClientLossMin  float64

	// Quarantined counts this round's uploads rejected by the ingress
	// gate (non-finite or norm-exploded) and excluded from the merge.
	Quarantined int

	// DecisionTime is the impact-factor computation (the "DRL" bar of
	// Fig. 9); AggTime is the weighted weight merge (the "Aggregation"
	// bar).
	DecisionTime time.Duration
	AggTime      time.Duration
}

// Result is a full training run's record.
type Result struct {
	Method   string
	Rounds   []RoundMetrics
	NumParam int

	// Weights is the final global model's flat parameter vector.
	Weights []float64

	// Accuracy holds the test accuracy at every evaluated round, in
	// percent (0–100), aligned with AccRounds.
	Accuracy  metrics.Series
	AccRounds []int
}

// Best returns the best test accuracy reached (Table 3's reporting rule).
func (r *Result) Best() float64 { return r.Accuracy.Best() }

// Final returns the last evaluated test accuracy.
func (r *Result) Final() float64 { return r.Accuracy.Final() }

// ClientLossMeans returns the per-round mean client inference loss.
func (r *Result) ClientLossMeans() metrics.Series {
	out := make(metrics.Series, len(r.Rounds))
	for i, m := range r.Rounds {
		out[i] = m.ClientLossMean
	}
	return out
}

// ClientLossVars returns the per-round variance of client inference loss.
func (r *Result) ClientLossVars() metrics.Series {
	out := make(metrics.Series, len(r.Rounds))
	for i, m := range r.Rounds {
		out[i] = m.ClientLossVar
	}
	return out
}

// MeanDecisionTime averages the aggregator's per-round decision time.
func (r *Result) MeanDecisionTime() time.Duration {
	if len(r.Rounds) == 0 {
		return 0
	}
	var total time.Duration
	for _, m := range r.Rounds {
		total += m.DecisionTime
	}
	return total / time.Duration(len(r.Rounds))
}

// MeanAggTime averages the per-round weight-merge time.
func (r *Result) MeanAggTime() time.Duration {
	if len(r.Rounds) == 0 {
		return 0
	}
	var total time.Duration
	for _, m := range r.Rounds {
		total += m.AggTime
	}
	return total / time.Duration(len(r.Rounds))
}

// enginePool resolves the run's execution pool: the caller-supplied
// cfg.Pool when set, a freshly created pool of Workers lanes when
// Workers > 1, or nil for sequential runs. When a pool is in play the
// large tensor kernels fan out on the SAME pool as client training and
// evaluation (tensor.SetParallel), so kernel parallelism is
// work-stealing-scheduled with the rest of the round loop instead of
// spawning raw goroutines that oversubscribe the lanes.
// Results are bit-identical with any pool or none, so the
// process-global hook is safe even when concurrent grid cells swap it.
//
// The returned release func must be deferred: for an owned pool it
// uninstalls only our own hook — a concurrent run that installed its
// pool in the meantime keeps it (closed pools are treated as absent by
// the kernels regardless) — and closes the pool. A caller-supplied pool
// is left untouched; its owner manages its lifecycle.
func (c RunConfig) enginePool() (pool *engine.Pool, release func()) {
	if c.Pool == nil && c.Workers > 1 {
		p := engine.New(c.Workers)
		tensor.SetParallel(p)
		return p, func() {
			tensor.ClearParallel(p)
			p.Close()
		}
	}
	if c.Pool != nil {
		tensor.SetParallel(c.Pool)
	}
	return c.Pool, func() {}
}

// population is the run loop's view of a client fleet: the Population
// surface the Selector sees, plus slot checkout for the training phase
// and loss write-back. checkout/checkin are never called concurrently —
// the parallel path binds all K slots before fanning out and releases
// them after the barrier — so implementations need no locking.
type population interface {
	Population
	// checkout returns a ready-to-train client for eligible index i,
	// bound to slot. Concurrent checkouts always use distinct slots.
	checkout(slot, i int) *Client
	// checkin releases a checked-out client, persisting whatever
	// identity state (RNG position) must survive to its next selection.
	checkin(slot int, c *Client)
	// noteLoss records client i's latest global-model inference loss.
	noteLoss(i int, v float64)
}

// eagerClients adapts a materialized []*Client fleet to the population
// interface: checkout is identity lookup and checkin is a no-op, since
// each eager client permanently owns its state.
type eagerClients struct {
	clients []*Client
	losses  []float64
}

func (e *eagerClients) NumClients() int              { return len(e.clients) }
func (e *eagerClients) SampleCount(i int) int        { return e.clients[i].Data.Len() }
func (e *eagerClients) LastLoss(i int) float64       { return e.losses[i] }
func (e *eagerClients) checkout(slot, i int) *Client { return e.clients[i] }
func (e *eagerClients) checkin(slot int, c *Client)  {}
func (e *eagerClients) noteLoss(i int, v float64)    { e.losses[i] = v }

// Run executes Algorithm 2: for every round, broadcast the global
// weights to K selected clients, train locally (optionally in parallel),
// compute impact factors via the aggregator, merge (Eq. 4), and record
// metrics. It returns the full per-round record.
//
// Run takes a materialized client fleet; RunVirtual is the
// constant-memory equivalent over a ClientPool, bit-identical for the
// same identities.
func Run(cfg RunConfig, clients []*Client, test *dataset.Dataset, agg Aggregator) *Result {
	cfg.Validate()
	if len(clients) == 0 {
		panic("fl: Run with no clients")
	}
	// Only clients with data can contribute.
	eligible := make([]*Client, 0, len(clients))
	for _, c := range clients {
		if c.Data.Len() > 0 {
			eligible = append(eligible, c)
		}
	}
	if len(eligible) == 0 {
		panic("fl: all client shards are empty")
	}
	pop := &eagerClients{clients: eligible, losses: make([]float64, len(eligible))}
	return runLoop(cfg, pop, test, agg)
}

// runLoop is the round loop shared by Run and RunVirtual. All per-round
// scratch (update slots, metric buffers, the distinct-check set) is
// allocated once up front, so the loop itself adds no heap churn.
func runLoop(cfg RunConfig, pop population, test *dataset.Dataset, agg Aggregator) *Result {
	if agg == nil {
		panic("fl: Run with nil aggregator")
	}
	evalEvery := cfg.EvalEvery
	if evalEvery == 0 {
		evalEvery = 1
	}
	k := cfg.K
	if k > pop.NumClients() {
		k = pop.NumClients()
	}

	serverRNG := rng.New(cfg.Seed)
	serverModel := cfg.Factory(cfg.Seed)
	global := serverModel.ParamVector()
	if cfg.Precision == F32 {
		// f32 mode's standing invariant: the float64-carried global
		// vector is exactly float32-representable, so every broadcast and
		// every client-side quantization of it is lossless.
		tensor.QuantizeLattice(global)
	}

	pool, release := cfg.enginePool()
	defer release()
	var ev *Evaluator
	if test != nil {
		// The evaluator's persistent lanes serve the sequential case too
		// (nil pool → one lane), so no eval path re-allocates its loss
		// scratch per round.
		ev = NewEvaluator(cfg.Factory, cfg.Seed, pool)
	}

	sel := cfg.Selector
	if sel == nil {
		sel = UniformSelector{}
	}

	atk := newAttackRuntime(cfg.Attack, cfg.AttackSeed, cfg.Seed)

	res := &Result{Method: agg.Name(), NumParam: len(global)}
	updates := make([]Update, k)
	slots := make([]*Client, k)
	lb := make([]float64, k)
	seen := make(map[int]struct{}, k)
	kept := make([]Update, 0, k)
	for round := 0; round < cfg.Rounds; round++ {
		selected := sel.Select(round, k, pop, serverRNG)

		trainCohort(pop, selected, global, cfg.Local, cfg.Precision, pool, round, atk, updates, slots, seen)

		for i, ci := range selected {
			pop.noteLoss(ci, updates[i].LossBefore)
		}

		// Ingress gate: poisoned uploads are dropped from the merge
		// cohort (counted below); the loss statistics still cover every
		// arrived update, quarantined or not.
		merge, quarantined := quarantineInto(cfg.Quarantine, updates, kept)

		var decision, aggTime time.Duration
		if len(merge) > 0 {
			t0 := time.Now()
			alpha := agg.ImpactFactors(round, merge)
			decision = time.Since(t0)

			t1 := time.Now()
			global = mergeP(cfg.Precision, cfg.Merger, merge, alpha, pool)
			aggTime = time.Since(t1)
		}
		// Every upload quarantined: the global model carries over.

		for i, u := range updates {
			lb[i] = u.LossBefore
		}
		m := RoundMetrics{
			Round:          round,
			ClientLossMean: mathx.Mean(lb),
			ClientLossVar:  mathx.Variance(lb),
			ClientLossMax:  mathx.Max(lb),
			ClientLossMin:  mathx.Min(lb),
			Quarantined:    quarantined,
			DecisionTime:   decision,
			AggTime:        aggTime,
		}
		if test != nil && (round%evalEvery == 0 || round == cfg.Rounds-1) {
			loss, acc := ev.Eval(global, test)
			m.Evaluated = true
			m.TestLoss = loss
			m.TestAcc = acc * 100
			res.Accuracy = append(res.Accuracy, m.TestAcc)
			res.AccRounds = append(res.AccRounds, round)
		}
		res.Rounds = append(res.Rounds, m)
	}
	res.Weights = global
	return res
}

// trainCohort runs one dispatch cohort's local training: every selected
// eligible index is checked out, trained against the broadcast global
// vector, and checked back in. It is shared by the synchronous round
// loop and the async engine's dispatch phase, so both substrates produce
// bit-identical client updates for the same cohort.
//
// When a pool is available and the selection is distinct, every identity
// is bound to its own slot before the fan-out, the slots run in
// parallel, and all are released after the barrier — checkout/checkin
// stay single-threaded. The sequential path doubles as the safety net
// for a custom Selector that violates the distinct-indices contract,
// where two tasks would otherwise share one client's model and RNG: one
// slot is checked out and returned per iteration, so a duplicated
// identity resumes the RNG stream its earlier occurrence advanced,
// exactly like a reused eager client.
//
// updates, slots and seen are caller-owned scratch of length (capacity
// for seen) at least len(selected); updates[:len(selected)] is filled in
// selection order.
//
// A non-nil attack runtime corrupts the cohort in two places, both
// order-invariant: data poisoning wraps each malicious client's shard
// during the single-threaded checkout (and unwraps it before checkin),
// and weight corruption rewrites each finished update inside the
// fan-out — a pure function of (round, client id), so any lane may run
// it. atk == nil compiles down to the historical benign path.
func trainCohort(pop population, selected []int, global []float64, lc LocalConfig, prec Precision, pool *engine.Pool, round int, atk *attackRuntime, updates []Update, slots []*Client, seen map[int]struct{}) {
	var orig []dataset.Data
	if atk != nil && atk.data != nil {
		orig = make([]dataset.Data, len(selected))
	}
	if pool != nil && len(selected) > 1 && distinctInto(seen, selected) {
		for i, ci := range selected {
			slots[i] = pop.checkout(i, ci)
			if orig != nil {
				orig[i] = poisonData(atk, slots[i])
			}
		}
		pool.For(len(selected), func(i int) {
			updates[i] = slots[i].run(global, lc, prec)
			if atk != nil && atk.malicious(updates[i].ClientID) {
				atk.corrupt(round, global, &updates[i])
			}
		})
		for i := range selected {
			if orig != nil && orig[i] != nil {
				slots[i].Data = orig[i]
			}
			pop.checkin(i, slots[i])
		}
		return
	}
	for i, ci := range selected {
		c := pop.checkout(0, ci)
		if orig != nil {
			orig[i] = poisonData(atk, c)
		}
		updates[i] = c.run(global, lc, prec)
		if atk != nil && atk.malicious(updates[i].ClientID) {
			atk.corrupt(round, global, &updates[i])
		}
		if orig != nil && orig[i] != nil {
			c.Data = orig[i]
		}
		pop.checkin(0, c)
	}
}

// poisonData swaps a malicious client's shard for its poisoned wrapper
// and returns the original for restoration (nil for honest clients).
func poisonData(atk *attackRuntime, c *Client) dataset.Data {
	if !atk.malicious(c.ID) {
		return nil
	}
	orig := c.Data
	c.Data = atk.data.CorruptData(orig)
	return orig
}

// distinctInto reports whether all indices differ (the Selector
// contract; verified before sharing clients across pool lanes). seen is
// caller-owned scratch, cleared on entry.
func distinctInto(seen map[int]struct{}, idx []int) bool {
	clear(seen)
	for _, i := range idx {
		if _, dup := seen[i]; dup {
			return false
		}
		seen[i] = struct{}{}
	}
	return true
}

// SingleSet trains on the concatenation of all client data in one place
// (the reference upper bound of §4.1): per "round" the model runs the
// same local-solver budget over the combined dataset, and the test
// accuracy is recorded on the same cadence as the federated runs. It
// honors Workers/Pool exactly like Run — the tensor kernels and the
// test evaluation fan out on the same engine — so its timings are
// comparable with the federated runs; results are bit-identical at any
// worker count.
func SingleSet(cfg RunConfig, all *dataset.Dataset, test *dataset.Dataset) *Result {
	cfg.Validate()
	if all == nil || all.N == 0 {
		panic("fl: SingleSet with no data")
	}
	evalEvery := cfg.EvalEvery
	if evalEvery == 0 {
		evalEvery = 1
	}
	pool, release := cfg.enginePool()
	defer release()
	client := NewClient(0, all, cfg.Factory, cfg.Seed+0xace)
	serverModel := cfg.Factory(cfg.Seed)
	global := serverModel.ParamVector()
	var ev *Evaluator
	if test != nil {
		ev = NewEvaluator(cfg.Factory, cfg.Seed, pool)
	}
	res := &Result{Method: "SingleSet", NumParam: len(global)}
	for round := 0; round < cfg.Rounds; round++ {
		u := client.Run(global, cfg.Local)
		global = u.Weights
		m := RoundMetrics{
			Round:          round,
			ClientLossMean: u.LossBefore,
			ClientLossMax:  u.LossBefore,
			ClientLossMin:  u.LossBefore,
		}
		if test != nil && (round%evalEvery == 0 || round == cfg.Rounds-1) {
			loss, acc := ev.Eval(global, test)
			m.Evaluated = true
			m.TestLoss = loss
			m.TestAcc = acc * 100
			res.Accuracy = append(res.Accuracy, m.TestAcc)
			res.AccRounds = append(res.AccRounds, round)
		}
		res.Rounds = append(res.Rounds, m)
	}
	res.Weights = global
	return res
}

// BuildClients splits a dataset by an assignment's client index lists
// and wraps each shard in a Client (deterministic per seed and client
// ID). Shards are zero-copy views into d — client memory is O(total
// indices), not O(total samples) — so d must stay immutable while the
// clients train, which the run loop guarantees (training only reads).
func BuildClients(d *dataset.Dataset, indices [][]int, factory nn.Factory, seed uint64) []*Client {
	clients := make([]*Client, len(indices))
	for i, idx := range indices {
		clients[i] = NewClient(i, d.View(idx), factory, clientSeed(seed, i))
	}
	return clients
}
