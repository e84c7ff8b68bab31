// Package feddrl is the public API of the FedDRL reproduction: a
// federated-learning simulator with deep-reinforcement-learning-based
// adaptive aggregation (Nguyen et al., "FedDRL: Deep Reinforcement
// Learning-based Adaptive Aggregation for Non-IID Data in Federated
// Learning", ICPP 2022).
//
// The package re-exports the user-facing types of the internal
// implementation packages so downstream code only imports "feddrl":
//
//   - datasets: Synthesize + the MNISTSim/FashionSim/CIFAR100Sim specs
//   - non-IID partitioners: Pareto (PA), ClusteredEqual (CE, the paper's
//     cluster skew), ClusteredNonEqual (CN), EqualShards, NonEqualShards
//   - the FL loop: NewClientPool + RunVirtual, SingleSet — clients are
//     (seed, index-recipe) identities over zero-copy DataView shards,
//     materialized only while selected, so memory stays O(K); NewClient
//     and BuildClients build standalone clients for hand-driven loops
//   - asynchronous rounds: RunAsync, the deterministic event-driven
//     round engine RunVirtual runs on — seeded virtual clock, pluggable
//     ArrivalModel traces (stragglers, dropout, availability) and
//     staleness-weighted merging; RunVirtual is its instant-arrival
//     case
//   - the execution engine: NewWorkerPool + RunConfig.Workers, a bounded
//     work-stealing pool whose parallel results are bit-identical to
//     sequential and whose nested loops stay parallel under saturation
//   - aggregators: FedAvg, FedProx, NewFedDRL (the paper's contribution),
//     or any custom Aggregator implementation
//   - federated-state precision F64 or F32: one entry per operation,
//     taking its width from the data (Aggregate, compression, AllFinite)
//     or a Precision argument (CommPerRound, CommAsyncRound)
//   - Byzantine robustness: seeded AttackModel fault injection
//     (SignFlip, GaussianNoise, ModelReplacement, Colluding, LabelFlip)
//     over an identity-stable malicious subset, robust Mergers (Median,
//     TrimmedMean, Krum) replacing the weighted merge, and a
//     server-side QuarantineConfig gate screening non-finite or
//     norm-exploded uploads — all deterministic across worker counts
//     and arrival traces, with the zero values bit-identical to a
//     benign run
//   - the DRL agent: NewAgent, DefaultAgentConfig, TrainTwoStage
//   - experiment harness: ExperimentNames, RunExperiment and the
//     CIScale/MediumScale/PaperScale presets
//
// See examples/quickstart for a 30-second end-to-end run.
package feddrl

import (
	"feddrl/internal/core"
	"feddrl/internal/dataset"
	"feddrl/internal/engine"
	"feddrl/internal/experiments"
	"feddrl/internal/fl"
	"feddrl/internal/metrics"
	"feddrl/internal/nn"
	"feddrl/internal/partition"
	"feddrl/internal/rng"
	"feddrl/internal/serialize"
	"feddrl/internal/tensor"
)

// Dataset and synthesis types.
type (
	// Dataset is an in-memory labelled dataset (see internal/dataset).
	Dataset = dataset.Dataset
	// DataSpec configures a synthetic dataset.
	DataSpec = dataset.Spec
	// ImageShape is the CHW layout of one sample.
	ImageShape = dataset.ImageShape
	// DataSource is the read-only sample-access interface shared by
	// Dataset and DataView; federated clients train against it.
	DataSource = dataset.Data
	// DataView is a zero-copy indexed view into a Dataset: shard
	// semantics without shard copies. Views share the parent's storage,
	// so mutating samples through (or under) a view is forbidden;
	// Materialize returns a contiguous private copy.
	DataView = dataset.View
)

// Partitioning types.
type (
	// Assignment maps clients to dataset indices.
	Assignment = partition.Assignment
	// PartitionStats summarizes an assignment (Table 2 inputs).
	PartitionStats = partition.Stats
)

// Federated-learning types.
type (
	// Client owns a private shard and a local model.
	Client = fl.Client
	// Update is the per-round tuple a client uploads.
	Update = fl.Update
	// Aggregator decides the impact factors each round. Implement this
	// interface to plug in custom aggregation rules (see
	// examples/customagg).
	Aggregator = fl.Aggregator
	// FedAvg is sample-count-proportional aggregation (Eq. 1).
	FedAvg = fl.FedAvg
	// FedProx labels FedAvg aggregation with client-side proximal term.
	FedProx = fl.FedProx
	// FedDRLAggregator is the paper's DRL-driven aggregator.
	FedDRLAggregator = fl.FedDRL
	// RunConfig configures a federated run.
	RunConfig = fl.RunConfig
	// LocalConfig is the client-side solver configuration.
	LocalConfig = fl.LocalConfig
	// Result is a training run's record.
	Result = fl.Result
	// RoundMetrics is one round's measurements.
	RoundMetrics = fl.RoundMetrics
	// ClientPool owns K reusable client slots and materializes virtual
	// clients — (seed, index-recipe) identities — only while selected,
	// keeping run memory O(K) instead of O(clients).
	ClientPool = fl.ClientPool
	// ClientPartition assigns dataset samples to virtual-client
	// identities without materializing per-client lists.
	ClientPartition = fl.Partition
	// IndexPartition adapts a materialized [][]int assignment to
	// ClientPartition.
	IndexPartition = fl.IndexPartition
	// CyclicPartition stripes samples cyclically over any number of
	// clients in O(1) storage (the million-client scaling partition).
	CyclicPartition = fl.CyclicPartition
	// Population is the Selector's read-only view of the client fleet.
	Population = fl.Population
	// Precision selects the federated-state width of a run (F64 or F32).
	Precision = fl.Precision
)

// Byzantine fault injection and robust aggregation. An AttackModel set
// on RunConfig.Attack corrupts the uploads of a seeded, identity-stable
// malicious fraction of the fleet; a Merger set on RunConfig.Merger
// replaces the default impact-factor weighted merge; QuarantineConfig
// screens arriving uploads at the server ingress. All three compose
// with RunVirtual and RunAsync and stay bit-identical across worker
// counts; their zero values reproduce a benign run bit for bit.
type (
	// AttackModel is the pluggable Byzantine fault model: a seeded,
	// identity-stable malicious subset whose uploads are corrupted
	// deterministically each round.
	AttackModel = fl.AttackModel
	// DataAttack is the optional data-poisoning face of an attack:
	// malicious clients train on corrupted shards (see LabelFlip).
	DataAttack = fl.DataAttack
	// ByzantineSet is the embeddable malicious-fraction selector shared
	// by the built-in attacks.
	ByzantineSet = fl.ByzantineSet
	// SignFlip negates (and optionally scales) malicious uploads.
	SignFlip = fl.SignFlip
	// GaussianNoise adds seeded Gaussian noise to malicious uploads.
	GaussianNoise = fl.GaussianNoise
	// ModelReplacement boosts malicious uploads away from the global
	// model (the classic model-replacement/backdoor amplifier).
	ModelReplacement = fl.ModelReplacement
	// Colluding makes every malicious client upload one shared
	// round-keyed random vector (a coordinated drift attack).
	Colluding = fl.Colluding
	// LabelFlip is the data-poisoning attack: malicious clients train
	// on label-flipped shards while their uploads stay untouched.
	LabelFlip = fl.LabelFlip
	// Merger is the server-side merge seam: it turns a round's updates
	// and impact factors into the next global model.
	Merger = fl.Merger
	// WeightedMerge is the default impact-factor weighted merge (Eq. 4)
	// as an explicit Merger (bit-identical to a nil Merger).
	WeightedMerge = fl.WeightedMerge
	// Median merges by coordinate-wise median.
	Median = fl.Median
	// TrimmedMean merges by the coordinate-wise β-trimmed mean.
	TrimmedMean = fl.TrimmedMean
	// Krum selects the single update closest to its neighbors
	// (Blanchard et al.'s Krum rule).
	Krum = fl.Krum
	// QuarantineConfig is the server-ingress screen: non-finite (and
	// optionally norm-exploded) uploads are counted and dropped before
	// aggregation instead of corrupting the global model.
	QuarantineConfig = fl.QuarantineConfig
	// StarvationError is RunAsync's diagnosable failure when an arrival
	// model drops every dispatch and a round can never complete.
	StarvationError = fl.StarvationError
)

var (
	// ParseAttack resolves a CLI spelling (signflip, gauss, replace,
	// collude, labelflip, none) and a malicious fraction to an
	// AttackModel.
	ParseAttack = fl.ParseAttack
	// ParseMerger resolves a CLI spelling (weighted, median, trimmed,
	// krum) to a Merger, sizing Krum's f from the malicious fraction.
	ParseMerger = fl.ParseMerger
	// FlipLabels wraps a data source so every label reads flipped
	// (class c becomes classes-1-c) — the LabelFlip poisoning view.
	FlipLabels = dataset.FlipLabels
)

// Federated-state precisions.
const (
	// F64 is the full-width default (bit-for-bit the pre-precision
	// behavior; the zero Precision value means the same).
	F64 = fl.F64
	// F32 runs the federated state — uploads, aggregation, global model
	// lattice — at float32, halving update wire size. Local training
	// stays float64; results are bit-identical across backends and
	// worker counts, like every other mode.
	F32 = fl.F32
)

// ParsePrecision resolves a CLI spelling ("f32", "f64" or "") to a
// Precision, erroring on anything else.
var ParsePrecision = fl.ParsePrecision

// Asynchronous round engine types.
type (
	// AsyncConfig configures RunAsync: RunConfig plus the arrival trace
	// and the server's staleness policy (zero async fields = the
	// instant-arrival setting RunVirtual runs).
	AsyncConfig = fl.AsyncConfig
	// AsyncResult is an async run's record: Result plus per-aggregation
	// async metrics (virtual time, staleness, drops).
	AsyncResult = fl.AsyncResult
	// AsyncRoundMetrics is one async aggregation step's bookkeeping.
	AsyncRoundMetrics = fl.AsyncRoundMetrics
	// Arrival is one dispatch's fate: virtual delay, or loss.
	Arrival = fl.Arrival
	// ArrivalModel is the pluggable seeded latency/availability trace.
	ArrivalModel = fl.ArrivalModel
	// InstantArrivals is the degenerate trace (zero latency, no drops).
	InstantArrivals = fl.InstantArrivals
	// TraceArrivals is a seeded synthetic straggler/dropout/availability
	// trace with identity-stable client traits.
	TraceArrivals = fl.TraceArrivals
)

// DRL agent types.
type (
	// Agent is the DDPG-style impact-factor agent (§3.3–3.4).
	Agent = core.Agent
	// AgentConfig holds the agent hyperparameters (Table 1).
	AgentConfig = core.Config
	// Env is the environment interface for two-stage training.
	Env = core.Env
	// TwoStageResult reports TrainTwoStage's outcome.
	TwoStageResult = core.TwoStageResult
)

// Model and experiment types.
type (
	// ModelFactory builds a fresh network from a seed.
	ModelFactory = nn.Factory
	// Network is a trainable sequential model.
	Network = nn.Network
	// Scale selects experiment sizing (CI / medium / paper).
	Scale = experiments.Scale
	// Series is an ordered sequence of per-round measurements.
	Series = metrics.Series
)

// Dataset constructors.
var (
	// Synthesize generates train/test splits for a spec.
	Synthesize = dataset.Synthesize
	// MNISTSim is the 10-class MNIST analogue spec.
	MNISTSim = dataset.MNISTSim
	// FashionSim is the harder 10-class Fashion-MNIST analogue spec.
	FashionSim = dataset.FashionSim
	// CIFAR100Sim is the 100-class CIFAR-100 analogue spec.
	CIFAR100Sim = dataset.CIFAR100Sim
)

// Partitioners (§4.1.1, §5.1).
var (
	// Pareto is the PA power-law partitioner.
	Pareto = partition.Pareto
	// ClusteredEqual is the CE cluster-skew partitioner.
	ClusteredEqual = partition.ClusteredEqual
	// ClusteredNonEqual is the CN cluster-skew + quantity-skew partitioner.
	ClusteredNonEqual = partition.ClusteredNonEqual
	// EqualShards is the §5.1 Equal label-size-imbalance partitioner.
	EqualShards = partition.EqualShards
	// NonEqualShards is the §5.1 Non-equal partitioner.
	NonEqualShards = partition.NonEqualShards
	// DirichletPartition is the label-distribution-imbalance partitioner
	// standard in the related work (§2.2.1).
	DirichletPartition = partition.Dirichlet
	// ComputePartitionStats analyses an assignment.
	ComputePartitionStats = partition.ComputeStats
	// PartitionASCII renders a Figure-4 style illustration.
	PartitionASCII = partition.ASCII
)

// FL loop.
var (
	// NewClient wraps a shard in a federated client.
	NewClient = fl.NewClient
	// BuildClients shards a dataset by an assignment.
	BuildClients = fl.BuildClients
	// NewClientPool builds the constant-memory virtual-client pool.
	NewClientPool = fl.NewClientPool
	// RunVirtual executes Algorithm 2 over a ClientPool with the given
	// aggregator; clients materialize only while selected.
	RunVirtual = fl.RunVirtual
	// RunAsync is the deterministic round engine over a ClientPool:
	// event-queue arrivals on a seeded virtual clock with
	// staleness-weighted merging; RunVirtual is its instant-arrival
	// case. It returns a *StarvationError (with the partial result)
	// when the arrival model drops every dispatch and a round can never
	// complete.
	RunAsync = fl.RunAsync
	// SingleSet trains centrally on the combined data (the §4.1 baseline).
	SingleSet = fl.SingleSet
	// Aggregate computes the Eq. 4 weighted model merge at the cohort's
	// width.
	Aggregate = fl.Aggregate
	// NewFedDRL wraps an Agent as an Aggregator.
	NewFedDRL = fl.NewFedDRL
	// EvalLossAcc evaluates a model on a dataset.
	EvalLossAcc = fl.EvalLossAcc
)

// Execution engine: the bounded work-stealing pool behind
// RunConfig.Workers. All parallel paths are bit-identical to sequential
// execution, and nested parallelism (grid → FL round → evaluation)
// stays parallel under saturation: blocked or idle lanes steal pending
// nested work instead of parking.
type (
	// WorkerPool is a persistent bounded work-stealing pool; share one
	// across runs via RunConfig.Pool to cap total parallelism.
	WorkerPool = engine.Pool
	// Evaluator is the chunk-parallel test-set evaluator (one model
	// replica per pool lane).
	Evaluator = fl.Evaluator
)

var (
	// NewWorkerPool builds a pool with the given lane count
	// (0 = GOMAXPROCS).
	NewWorkerPool = engine.New
	// NewEvaluator builds a chunk-parallel evaluator over a pool.
	NewEvaluator = fl.NewEvaluator
	// AggregateOn is Aggregate executed segment-parallel on a pool.
	AggregateOn = fl.AggregateOn
)

// Compute kernels and scratch arenas: the blocked, register-tiled GEMM
// kernels under every Forward/Backward, and the per-network buffer
// arenas that make warm train steps allocation-free. RunVirtual wires
// both automatically; these re-exports serve custom training loops.
type (
	// ModelScratch is a per-network arena of reusable activation and
	// gradient buffers (see Network.ForwardScratch/BackwardScratch).
	ModelScratch = nn.Scratch
	// PoolStats is a snapshot of a WorkerPool's optional scheduling
	// counters (Pool.EnableStats / Pool.Stats).
	PoolStats = engine.Stats
)

var (
	// NewModelScratch builds an empty per-network scratch arena.
	NewModelScratch = nn.NewScratch
	// SetKernelPool installs the pool that large tensor kernels fan out
	// on (nil reverts to sequential); RunVirtual calls it automatically.
	SetKernelPool = tensor.SetParallel
	// KernelBackend reports the active SIMD kernel backend ("avx512",
	// "avx", "neon" or "generic"); the TENSOR_BACKEND environment
	// variable overrides the auto-detected default at startup.
	KernelBackend = tensor.KernelBackend
	// SetKernelBackend forces a backend from KernelBackends (useful for
	// benchmarking tiers against each other); it errors on names the
	// host cannot run. All backends are bit-identical.
	SetKernelBackend = tensor.SetBackend
	// KernelBackends lists the active backend's fallback chain, widest
	// first, always ending in "generic".
	KernelBackends = tensor.Backends
)

// DRL agent.
var (
	// NewAgent builds the DDPG-style agent.
	NewAgent = core.NewAgent
	// DefaultAgentConfig returns the Table 1 hyperparameters for K
	// participating clients.
	DefaultAgentConfig = core.DefaultConfig
	// TrainTwoStage runs the §3.4.2 two-stage training strategy.
	TrainTwoStage = core.TrainTwoStage
)

// Models.
var (
	// NewMLP builds a ReLU multi-layer perceptron.
	NewMLP = nn.NewMLP
	// NewSimpleCNN builds the paper's small CNN (§4.1.2).
	NewSimpleCNN = nn.NewSimpleCNN
	// NewVGGMini builds the scaled VGG stand-in (§4.1.2).
	NewVGGMini = nn.NewVGGMini
	// NewRNG builds the deterministic generator used across the library.
	NewRNG = rng.New
)

// Experiment job model: grid experiments decompose into serializable
// cell jobs whose artifacts render in a pure merge stage, enabling
// cross-process sharding and seed replication.
type (
	// ExperimentCellSpec identifies one runnable grid cell.
	ExperimentCellSpec = experiments.CellSpec
	// ExperimentCellArtifact is a cell's machine-readable result.
	ExperimentCellArtifact = experiments.CellArtifact
	// ExperimentArtifacts is a set of cell artifacts (a whole grid or
	// one shard), serializable to a binary artifact file.
	ExperimentArtifacts = experiments.ArtifactSet
	// ExperimentCache is a content-addressed on-disk store of cell
	// artifacts: cached cells are loaded instead of recomputed, and
	// cached runs render byte-identical output to uncached ones.
	ExperimentCache = experiments.Cache
	// ExperimentCacheStats counts one cache handle's hits, misses and
	// write-backs.
	ExperimentCacheStats = experiments.CacheStats
	// ExperimentCacheGCStats reports one cache GC pass (records pruned,
	// evicted for the byte budget, and kept).
	ExperimentCacheGCStats = experiments.GCStats
)

// Experiments.
var (
	// CIScale finishes every experiment in seconds.
	CIScale = experiments.CI
	// MediumScale is the EXPERIMENTS.md configuration.
	MediumScale = experiments.Medium
	// PaperScale is the closest feasible match to §4.1.2.
	PaperScale = experiments.Paper
	// ScaleByName resolves "ci", "medium" or "paper".
	ScaleByName = experiments.ScaleByName
	// ExperimentNames lists the reproducible tables and figures.
	ExperimentNames = experiments.Names
	// RunExperiment executes a registered table/figure by id.
	RunExperiment = experiments.Run
	// RunCell runs one experiment cell at a scale — the path every grid
	// cell takes — after checking every name it refers to.
	RunCell = experiments.RunCell
	// RunExperimentSeeds runs a grid experiment with m seed replicates
	// per cell and renders mean±std columns (m <= 1 behaves like
	// RunExperiment).
	RunExperimentSeeds = experiments.RunSeeds
	// RunExperimentShard computes the deterministic i/n slice of a grid
	// experiment and returns its artifact set.
	RunExperimentShard = experiments.RunShard
	// MergeExperimentArtifacts recombines shard artifact sets.
	MergeExperimentArtifacts = experiments.MergeSets
	// RenderExperimentArtifacts renders a complete artifact set into
	// the exact text an unsharded run produces.
	RenderExperimentArtifacts = experiments.RenderSet
	// LoadExperimentArtifacts reads a shard artifact file.
	LoadExperimentArtifacts = experiments.LoadArtifactSet
	// ExperimentShardable reports whether an id supports -shard/-merge.
	ExperimentShardable = experiments.Shardable
	// ExportExperimentCSV writes a figure's series as CSV files.
	ExportExperimentCSV = experiments.ExportCSV
	// OpenExperimentCache opens (creating unless readonly) a
	// content-addressed artifact cache directory.
	OpenExperimentCache = experiments.OpenCache
	// RunExperimentCached is RunExperiment with an artifact cache: grid
	// cells found in the cache are loaded instead of recomputed.
	RunExperimentCached = experiments.RunCached
	// RunExperimentSeedsCached is RunExperimentSeeds with an artifact
	// cache.
	RunExperimentSeedsCached = experiments.RunSeedsCached
	// RunExperimentShardCached is RunExperimentShard with an artifact
	// cache — rerunning an interrupted shard against the same cache
	// recomputes only the cells it had not finished.
	RunExperimentShardCached = experiments.RunShardCached
	// ExportExperimentCSVCached is ExportExperimentCSV with an artifact
	// cache.
	ExportExperimentCSVCached = experiments.ExportCSVCached
)

// Checkpointing, communication accounting, selection and compression.
type (
	// Checkpoint is the binary snapshot format for models and agents.
	Checkpoint = serialize.Checkpoint
	// CommRound models one synchronous round's traffic (§5.3).
	CommRound = fl.CommRound
	// Selector chooses the participating clients each round.
	Selector = fl.Selector
	// UniformSelector is the paper's uniform random participation.
	UniformSelector = fl.UniformSelector
	// SizeWeightedSelector samples proportionally to shard size.
	SizeWeightedSelector = fl.SizeWeightedSelector
	// PowerOfChoiceSelector keeps the highest-loss candidates (Cho et al.).
	PowerOfChoiceSelector = fl.PowerOfChoiceSelector
	// RoundRobinSelector cycles deterministically.
	RoundRobinSelector = fl.RoundRobinSelector
	// SparseDelta is a top-k-compressed client update (§3.5) at the
	// width of the update it compresses.
	SparseDelta = fl.SparseDelta
)

// Sparse update compression (§3.5 compatibility) at the cohort's width.
var (
	// CompressUpdates compresses a round's updates at a keep fraction.
	CompressUpdates = fl.CompressUpdates
	// CompressUpdatesOn is CompressUpdates fanned out across an engine
	// pool's lanes (bit-identical to the sequential path).
	CompressUpdatesOn = fl.CompressUpdatesOn
	// DecompressUpdates reconstructs dense updates server-side.
	DecompressUpdates = fl.DecompressUpdates
)

// CompressTopK keeps the k largest-magnitude weight deltas.
func CompressTopK[E tensor.Elem](weights, base []E, k int) SparseDelta {
	return fl.CompressTopK(weights, base, k)
}

// AllFinite reports whether a weight vector of either width is free of
// NaN/Inf (the upload screen behind the quarantine gate).
func AllFinite[E tensor.Elem](v []E) bool { return fl.AllFinite(v) }

var (
	// NewCheckpoint returns an empty checkpoint.
	NewCheckpoint = serialize.NewCheckpoint
	// LoadCheckpoint reads a checkpoint file.
	LoadCheckpoint = serialize.LoadFile
	// RestoreAgent rebuilds an agent from a checkpoint.
	RestoreAgent = core.RestoreAgent
	// LoadAgentFile restores an agent from a checkpoint file.
	LoadAgentFile = core.LoadAgentFile
	// CommPerRound computes a synchronous round's traffic under an
	// aggregator at a precision.
	CommPerRound = fl.CommPerRound
	// CommAsyncRound computes an asynchronous aggregation step's
	// traffic at a precision: dispatched broadcasts down, arrived
	// updates (with staleness metadata) up.
	CommAsyncRound = fl.CommAsyncRound
)

// AsyncMetaBytes is the per-update staleness metadata an asynchronous
// uplink carries beyond the synchronous payload.
const AsyncMetaBytes = fl.AsyncMetaBytes

// MLPFactory returns a ModelFactory for a dense network over inputs of
// the given dimension — a convenience for quickstarts and examples.
func MLPFactory(dim int, hidden []int, classes int) ModelFactory {
	return func(seed uint64) *Network {
		return nn.NewMLP(rng.New(seed), dim, hidden, classes)
	}
}

// CNNFactory returns a ModelFactory for the paper's simple CNN over
// images of the given shape.
func CNNFactory(shape ImageShape, classes int) ModelFactory {
	return func(seed uint64) *Network {
		return nn.NewSimpleCNN(rng.New(seed), shape.C, shape.H, shape.W, classes)
	}
}
