package core

import (
	"math"
	"testing"

	"feddrl/internal/replay"
	"feddrl/internal/rng"
)

// fillBuffer observes n seeded transitions, every seventh terminal, so
// the buffer holds both bootstrapped and terminal TD targets.
func fillBuffer(a *Agent, n int, r *rng.RNG) {
	s := make([]float64, a.cfg.StateDim())
	s2 := make([]float64, a.cfg.StateDim())
	for i := 0; i < n; i++ {
		for j := range s {
			s[j], s2[j] = r.Normal(0, 1), r.Normal(0, 1)
		}
		act := a.Act(s, true)
		if i%7 == 6 {
			a.ObserveDone(s, act, -r.Float64(), s2)
		} else {
			a.Observe(s, act, -r.Float64(), s2)
		}
	}
}

// TestReprioritizeBatchedMatchesPerExperience pins the batched
// reprioritize to the per-experience path it replaced: on a filled
// buffer spanning more than one reprioChunk, the TD errors from two
// batched value-network forwards per chunk are bit-identical to two
// 1-row QValue forwards per experience, and reprioritizing with either
// leaves the buffer in the same order with the same priority bits.
func TestReprioritizeBatchedMatchesPerExperience(t *testing.T) {
	cfg := smallConfig(4)
	cfg.BufferCap = 1000
	a := NewAgent(cfg)
	fillBuffer(a, reprioChunk+45, rng.New(11))
	a.Train() // move the value network off its initialization

	all := a.Buffer.All()
	ref := replay.New(cfg.BufferCap, rng.New(0))
	want := make([]float64, len(all))
	for i, e := range all {
		ref.Add(e)
		target := e.R
		if !e.Done {
			target += cfg.Gamma * a.QValue(e.S2, e.A)
		}
		want[i] = target - a.QValue(e.S, e.A)
	}
	got := a.tdErrors()
	if len(got) != len(want) {
		t.Fatalf("%d TD errors for %d experiences", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("TD error %d: batched %x, per-experience %x", i, got[i], want[i])
		}
	}

	ref.Reprioritize(want)
	a.Buffer.Reprioritize(got)
	for i, e := range a.Buffer.All() {
		r := ref.All()[i]
		if &e.S[0] != &r.S[0] || math.Float64bits(e.Prior) != math.Float64bits(r.Prior) {
			t.Fatalf("buffer position %d differs after reprioritize", i)
		}
	}
}

// TestAgentTrainAllocs gates the arena-backed agent: once every buffer
// shape has been seen, a Train call (reprioritize over a buffer larger
// than one chunk, then UpdatesPerRound value/policy steps) performs no
// heap allocation.
func TestAgentTrainAllocs(t *testing.T) {
	cfg := smallConfig(4)
	cfg.Hidden = 64
	cfg.BufferCap = 1000
	a := NewAgent(cfg)
	fillBuffer(a, reprioChunk+45, rng.New(12))
	a.Train() // warm the arenas, optimizer moments and batch buffers
	if allocs := testing.AllocsPerRun(5, a.Train); allocs != 0 {
		t.Fatalf("warm Agent.Train allocates %.1f times per call, want 0", allocs)
	}
}
