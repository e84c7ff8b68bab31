package fl

import (
	"math"
	"reflect"
	"testing"

	"feddrl/internal/dataset"
)

// The Byzantine suite: seeded attacks must replay bitwise across worker
// counts and arrival traces, the zero-value attack path must be byte-identical
// to a benign run, and the quarantine gate must keep poisoned uploads
// out of the global model without panicking.

// attackedConfig decorates a run config with a seeded sign-flip cohort.
func attackedConfig(cfg RunConfig) RunConfig {
	cfg.Attack = SignFlip{ByzantineSet: ByzantineSet{Frac: 0.4}}
	cfg.AttackSeed = 99
	return cfg
}

// TestAttackDegenerateByteIdentity: a zero-fraction attack, the explicit
// WeightedMerge and the zero-value quarantine gate must reproduce the
// nil/nil/zero configuration byte for byte — the compatibility contract
// that keeps historical outputs (and cached experiment cells) valid.
func TestAttackDegenerateByteIdentity(t *testing.T) {
	const seed = 43
	baseline := func() *Result {
		clients, test, cfg := detFederation(t, seed)
		return stripTimings(RunVirtual(cfg, clients, test, FedAvg{}))
	}
	degenerate := func() *Result {
		clients, test, cfg := detFederation(t, seed)
		cfg.Attack = SignFlip{ByzantineSet: ByzantineSet{Frac: 0}}
		cfg.Merger = WeightedMerge{}
		cfg.Quarantine = QuarantineConfig{}
		return stripTimings(RunVirtual(cfg, clients, test, FedAvg{}))
	}
	want, got := baseline(), degenerate()
	if !reflect.DeepEqual(want, got) {
		t.Fatal("degenerate attack configuration differs from the benign run")
	}
}

// TestAttackSeededBitIdenticalAcrossWorkers: a real seeded attack must
// replay bitwise at every worker count.
func TestAttackSeededBitIdenticalAcrossWorkers(t *testing.T) {
	const seed = 47
	runAt := func(workers int) *Result {
		clients, test, cfg := detFederation(t, seed)
		cfg = attackedConfig(cfg)
		cfg.Workers = workers
		return stripTimings(RunVirtual(cfg, clients, test, FedAvg{}))
	}
	ref := runAt(1)
	for _, workers := range []int{2, 4, 8} {
		got := runAt(workers)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("Workers=%d: attacked run differs from Workers=1", workers)
		}
		for i := range ref.Weights {
			if math.Float64bits(ref.Weights[i]) != math.Float64bits(got.Weights[i]) {
				t.Fatalf("Workers=%d: weight %d differs bitwise", workers, i)
			}
		}
	}
	// And the attack must actually bite: the benign run's weights differ.
	benign := func() *Result {
		clients, test, cfg := detFederation(t, seed)
		return stripTimings(RunVirtual(cfg, clients, test, FedAvg{}))
	}()
	if reflect.DeepEqual(ref.Weights, benign.Weights) {
		t.Fatal("a 40% sign-flip cohort left the final weights untouched")
	}
}

// TestAttackAsyncTraceReproducible: the attack composes with a
// non-trivial arrival trace (stragglers, drops, staleness) and stays
// bit-identical across worker counts.
func TestAttackAsyncTraceReproducible(t *testing.T) {
	const seed = 53
	runAt := func(workers int) *AsyncResult {
		cp, test, cfg := detFederation(t, seed)
		cfg = attackedConfig(cfg)
		cfg.Workers = workers
		cfg.Rounds = 5
		return stripAsyncTimings(mustAsync(RunAsync(asyncTraceConfig(cfg), cp, test, FedAvg{})))
	}
	ref := runAt(1)
	for _, workers := range []int{4, 8} {
		if got := runAt(workers); !reflect.DeepEqual(ref, got) {
			t.Fatalf("Workers=%d: attacked traced async run differs from Workers=1", workers)
		}
	}
}

// TestAttackF32AcrossWorkers: the f32-mode attack path (widen, corrupt
// in f64, quantize back) must stay bit-identical across worker counts.
func TestAttackF32AcrossWorkers(t *testing.T) {
	const seed = 59
	runAt := func(workers int) *Result {
		clients, test, cfg := detFederation(t, seed)
		cfg = attackedConfig(cfg)
		cfg.Precision = F32
		cfg.Workers = workers
		return stripTimings(RunVirtual(cfg, clients, test, FedAvg{}))
	}
	ref := runAt(1)
	for _, workers := range []int{2, 4} {
		if got := runAt(workers); !reflect.DeepEqual(ref, got) {
			t.Fatalf("Workers=%d: f32 attacked run differs from Workers=1", workers)
		}
	}
}

// TestAttackIdentityStable: malicious membership is a per-identity
// trait of the resolved seed — stable across calls, covering roughly
// the configured fraction, with both degenerate fractions exact.
func TestAttackIdentityStable(t *testing.T) {
	mk := func(frac float64) *attackRuntime {
		return newAttackRuntime(SignFlip{ByzantineSet: ByzantineSet{Frac: frac}}, 7, 1)
	}
	a := mk(0.3)
	const ids = 2000
	count := 0
	for id := 0; id < ids; id++ {
		m := a.malicious(id)
		for rep := 0; rep < 3; rep++ {
			if a.malicious(id) != m {
				t.Fatalf("membership of id %d is not stable", id)
			}
		}
		if m {
			count++
		}
	}
	if frac := float64(count) / ids; frac < 0.2 || frac > 0.4 {
		t.Fatalf("malicious fraction %.3f far from configured 0.3", frac)
	}
	for id := 0; id < 64; id++ {
		if mk(0).malicious(id) {
			t.Fatalf("zero fraction marked id %d malicious", id)
		}
		if !mk(1).malicious(id) {
			t.Fatalf("full fraction left id %d honest", id)
		}
	}
	// AttackSeed 0 derives from the run seed: two run seeds, two sets.
	d1 := newAttackRuntime(SignFlip{ByzantineSet: ByzantineSet{Frac: 0.5}}, 0, 1)
	d2 := newAttackRuntime(SignFlip{ByzantineSet: ByzantineSet{Frac: 0.5}}, 0, 2)
	same := true
	for id := 0; id < 256; id++ {
		if d1.malicious(id) != d2.malicious(id) {
			same = false
		}
	}
	if same {
		t.Fatal("derived attack seeds produced identical membership for distinct run seeds")
	}
}

// TestColludingUploadsAgree: two different malicious clients in the
// same round must upload byte-identical vectors (the shared round-keyed
// direction), and a different round must change the direction.
func TestColludingUploadsAgree(t *testing.T) {
	global := []float64{0.5, -0.25, 1.5}
	mkUpdate := func(id int, bias float64) Update {
		return Update{ClientID: id, Weights: []float64{bias, bias + 1, bias - 1}}
	}
	a := Colluding{ByzantineSet: ByzantineSet{Frac: 1}}
	u1, u2 := mkUpdate(3, 0.1), mkUpdate(9, -2.0)
	a.Corrupt(4, 3, 77, global, &u1)
	a.Corrupt(4, 9, 77, global, &u2)
	for i := range u1.Weights {
		if math.Float64bits(u1.Weights[i]) != math.Float64bits(u2.Weights[i]) {
			t.Fatalf("colluders disagree at coordinate %d", i)
		}
	}
	u3 := mkUpdate(3, 0.1)
	a.Corrupt(5, 3, 77, global, &u3)
	if reflect.DeepEqual(u1.Weights, u3.Weights) {
		t.Fatal("collusion direction did not change across rounds")
	}
}

// TestLabelFlipChangesRun: the data-poisoning attack must complete
// (restoring every shard afterwards) and actually move the outcome.
func TestLabelFlipChangesRun(t *testing.T) {
	const seed = 61
	benignClients, test, cfg := detFederation(t, seed)
	benign := stripTimings(RunVirtual(cfg, benignClients, test, FedAvg{}))

	clients, test2, cfg2 := detFederation(t, seed)
	cfg2.Attack = LabelFlip{ByzantineSet: ByzantineSet{Frac: 0.5}}
	cfg2.AttackSeed = 5
	poisoned := stripTimings(RunVirtual(cfg2, clients, test2, FedAvg{}))
	if reflect.DeepEqual(benign.Weights, poisoned.Weights) {
		t.Fatal("label flipping half the fleet left the weights untouched")
	}
	for i, s := range clients.slots {
		if _, ok := s.c.Data.(*dataset.View); !ok {
			t.Fatalf("slot %d still holds a %T after the run, not its view", i, s.c.Data)
		}
	}
}

// nanAttack is a test fault model that poisons one coordinate with NaN —
// the canonical diverging-client upload the quarantine gate must catch.
type nanAttack struct{ ByzantineSet }

func (nanAttack) Name() string { return "nan" }
func (nanAttack) Corrupt(round, id int, seed uint64, global []float64, u *Update) {
	corruptWeights(u, func(w []float64) { w[0] = math.NaN() })
}

// TestQuarantineNaNRunCompletes: with poisoned uploads arriving every
// round, the zero-value quarantine gate must keep the run alive, count
// the rejections, and keep the global model finite.
func TestQuarantineNaNRunCompletes(t *testing.T) {
	const seed = 67
	clients, test, cfg := detFederation(t, seed)
	cfg.Attack = nanAttack{ByzantineSet{Frac: 0.5}}
	cfg.AttackSeed = 5
	res := RunVirtual(cfg, clients, test, FedAvg{})
	total := 0
	for _, m := range res.Rounds {
		total += m.Quarantined
	}
	if total == 0 {
		t.Fatal("NaN uploads were never quarantined")
	}
	if !AllFinite(res.Weights) {
		t.Fatal("NaN leaked into the global model")
	}
}

// TestQuarantineReject covers the gate's screens directly: non-finite
// coordinates in either width, the optional norm ceiling, and the
// opt-out.
func TestQuarantineReject(t *testing.T) {
	var q QuarantineConfig
	if q.reject(&Update{Weights: []float64{1, -2, 3}}) {
		t.Fatal("finite upload rejected")
	}
	if !q.reject(&Update{Weights: []float64{1, math.NaN()}}) {
		t.Fatal("NaN upload accepted")
	}
	if !q.reject(&Update{Weights: []float64{math.Inf(-1)}}) {
		t.Fatal("-Inf upload accepted")
	}
	if !q.reject(&Update{Weights32: []float32{float32(math.NaN())}}) {
		t.Fatal("f32 NaN upload accepted")
	}
	off := QuarantineConfig{DisableFiniteCheck: true}
	if off.reject(&Update{Weights: []float64{math.NaN()}}) {
		t.Fatal("disabled finite screen still rejected")
	}
	norm := QuarantineConfig{MaxNorm: 5}
	if norm.reject(&Update{Weights: []float64{3, 4}}) {
		t.Fatal("norm-5 upload rejected at ceiling 5")
	}
	if !norm.reject(&Update{Weights: []float64{30, 40}}) {
		t.Fatal("norm-50 upload accepted at ceiling 5")
	}
	if !norm.reject(&Update{Weights32: []float32{30, 40}}) {
		t.Fatal("f32 norm-50 upload accepted at ceiling 5")
	}
}

// TestAggregatePanicsOnNonFinite pins the misuse/fault split: the
// library-level aggregation entrypoints panic on non-finite input (the
// caller was supposed to screen), in both widths.
func TestAggregatePanicsOnNonFinite(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic on non-finite input", name)
			}
		}()
		f()
	}
	expectPanic("Aggregate", func() {
		Aggregate([]Update{{Weights: []float64{math.NaN()}}}, []float64{1})
	})
	expectPanic("Aggregate f32", func() {
		Aggregate([]Update{{Weights32: []float32{float32(math.Inf(1))}}}, []float64{1})
	})
	expectPanic("Merge32", func() {
		WeightedMerge{}.Merge32([]Update{{Weights32: []float32{float32(math.NaN())}}}, []float64{1}, nil)
	})
}

// TestAllFinite covers the screening predicates themselves.
func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{0, -1, 1e300}) || !AllFinite([]float64(nil)) {
		t.Fatal("finite vector reported non-finite")
	}
	if AllFinite([]float64{0, math.NaN()}) || AllFinite([]float64{math.Inf(1)}) {
		t.Fatal("non-finite vector reported finite")
	}
	if !AllFinite([]float32{0, -1, 1e30}) {
		t.Fatal("finite f32 vector reported non-finite")
	}
	if AllFinite([]float32{float32(math.NaN())}) || AllFinite([]float32{float32(math.Inf(-1))}) {
		t.Fatal("non-finite f32 vector reported finite")
	}
}

// TestParseAttack covers the CLI resolution table and its validation.
func TestParseAttack(t *testing.T) {
	for _, name := range []string{"", "none"} {
		if a, err := ParseAttack(name, 0.2); err != nil || a != nil {
			t.Fatalf("ParseAttack(%q) = %v, %v; want nil, nil", name, a, err)
		}
	}
	for name, want := range map[string]string{
		"signflip": "signflip", "gauss": "gauss", "replace": "replace",
		"collude": "collude", "labelflip": "labelflip",
	} {
		a, err := ParseAttack(name, 0.25)
		if err != nil || a.Name() != want || a.Fraction() != 0.25 {
			t.Fatalf("ParseAttack(%q) = %v, %v", name, a, err)
		}
	}
	if _, err := ParseAttack("nope", 0.2); err == nil {
		t.Fatal("unknown attack did not error")
	}
	for _, frac := range []float64{-0.1, 1.5} {
		if _, err := ParseAttack("signflip", frac); err == nil {
			t.Fatalf("fraction %v accepted", frac)
		}
	}
}

// TestAttackSeedDerivation: AttackSeed 0 must still produce a seeded,
// reproducible attack (derived from the run seed), and two runs with
// the same explicit AttackSeed but different run seeds share membership.
func TestAttackSeedDerivation(t *testing.T) {
	a1 := newAttackRuntime(SignFlip{ByzantineSet: ByzantineSet{Frac: 0.5}}, 9, 1)
	a2 := newAttackRuntime(SignFlip{ByzantineSet: ByzantineSet{Frac: 0.5}}, 9, 2)
	for id := 0; id < 256; id++ {
		if a1.malicious(id) != a2.malicious(id) {
			t.Fatal("explicit AttackSeed did not pin membership across run seeds")
		}
	}
	if newAttackRuntime(nil, 9, 1) != nil {
		t.Fatal("nil model did not resolve to the benign runtime")
	}
	// The derived seed must not collide with the trait stream of the
	// run seed itself.
	if got := newAttackRuntime(SignFlip{}, 0, 3).seed; got != 3^attackSalt {
		t.Fatalf("derived seed = %#x, want %#x", got, 3^attackSalt)
	}
}
