// Twostage demonstrates the paper's two-stage training strategy (§3.4.2,
// Fig. 3b) through the public API: two online workers interact with
// independent simulated FL environments in parallel, their experience
// buffers are gathered into a centralized buffer, and a main agent is
// trained offline on the merged experience. The pre-trained agent is
// then checkpointed to disk, restored, and deployed on a fresh
// federation — compared against a cold-started agent.
package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"feddrl"
)

// simEnv is a lightweight FL environment: a tiny federation whose
// aggregation weights come from the worker's actions. State and reward
// follow the paper's definitions (§3.3.2, Eq. 7).
type simEnv struct {
	k       int
	seed    uint64
	episode int

	cfg     feddrl.AgentConfig
	train   *feddrl.Dataset
	clients []*feddrl.Client
	factory feddrl.ModelFactory
	global  []float64
	updates []feddrl.Update
	round   int
}

func newSimEnv(cfg feddrl.AgentConfig, seed uint64, episode int) *simEnv {
	spec := feddrl.MNISTSim().Scaled(0.1)
	train, _ := feddrl.Synthesize(spec, seed)
	return &simEnv{k: cfg.K, seed: seed, episode: episode, cfg: cfg, train: train}
}

func (e *simEnv) Reset() []float64 {
	assign := feddrl.ClusteredEqual(e.train, e.k, 0.6, 2, 2, feddrl.NewRNG(e.seed+1))
	e.factory = feddrl.MLPFactory(e.train.Dim, []int{16}, e.train.NumClasses)
	e.clients = feddrl.BuildClients(e.train, assign.ClientIndices, e.factory, e.seed+2)
	e.global = e.factory(e.seed + 3).ParamVector()
	e.round = 0
	e.step()
	return e.state()
}

func (e *simEnv) step() {
	lc := feddrl.LocalConfig{Epochs: 1, Batch: 10, LR: 0.05}
	e.updates = make([]feddrl.Update, len(e.clients))
	for i, c := range e.clients {
		e.updates[i] = c.Run(e.global, lc)
	}
}

func (e *simEnv) state() []float64 {
	lb := make([]float64, e.k)
	for i, u := range e.updates {
		lb[i] = u.LossBefore
	}
	// A compact hand-rolled state for the example: the agent only needs
	// consistent dimensions, so reuse the losses for all three blocks.
	s := make([]float64, 3*e.k)
	for i, u := range e.updates {
		s[i] = u.LossBefore
		s[e.k+i] = u.LossAfter
		s[2*e.k+i] = float64(u.N)
	}
	return s
}

func (e *simEnv) Step(action []float64) ([]float64, float64, bool) {
	// Softmax the action means into aggregation weights.
	alpha := make([]float64, e.k)
	max := action[0]
	for i := 1; i < e.k; i++ {
		if action[i] > max {
			max = action[i]
		}
	}
	sum := 0.0
	for i := 0; i < e.k; i++ {
		alpha[i] = math.Exp(action[i] - max)
		sum += alpha[i]
	}
	for i := range alpha {
		alpha[i] /= sum
	}
	e.global = feddrl.Aggregate(e.updates, alpha)
	e.round++
	e.step()
	// Eq. 7 reward (negated): mean + (max-min) of the fresh losses.
	lo, hi, mean := 1e18, -1e18, 0.0
	for _, u := range e.updates {
		mean += u.LossBefore
		if u.LossBefore < lo {
			lo = u.LossBefore
		}
		if u.LossBefore > hi {
			hi = u.LossBefore
		}
	}
	mean /= float64(e.k)
	return e.state(), -(mean + (hi - lo)), e.round >= e.episode
}

func main() {
	const k = 4
	cfg := feddrl.DefaultAgentConfig(k)
	cfg.Hidden = 32
	cfg.BatchSize = 16
	cfg.WarmupExperiences = 4
	cfg.UpdatesPerRound = 2

	// Stage 1 (online, parallel workers) + stage 2 (offline on the
	// merged buffer).
	fmt.Println("two-stage training: 2 workers x 12 rounds online, 8 offline updates")
	res := feddrl.TrainTwoStage(cfg, func(w int, seed uint64) feddrl.Env {
		return newSimEnv(cfg, seed, 6)
	}, 2, 12, 8)
	fmt.Printf("worker experiences gathered: %v (centralized buffer: %d)\n",
		res.WorkerExperiences, res.Agent.Buffer.Len())

	// Checkpoint the trained agent and restore it — the deployment path.
	dir, err := os.MkdirTemp("", "feddrl-twostage")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	ckptPath := filepath.Join(dir, "agent.ckpt")
	if err := res.Agent.SaveFile(ckptPath); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	restored, err := feddrl.LoadAgentFile(cfg, ckptPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("agent checkpointed to %s and restored\n\n", ckptPath)

	// Deploy on a fresh federation vs a cold-started agent.
	spec := feddrl.MNISTSim().Scaled(0.2)
	train, test := feddrl.Synthesize(spec, 555)
	assign := feddrl.ClusteredEqual(train, k, 0.6, 2, 2, feddrl.NewRNG(9))
	factory := feddrl.MLPFactory(train.Dim, []int{16}, train.NumClasses)
	runCfg := feddrl.RunConfig{
		Rounds:  10,
		K:       k,
		Local:   feddrl.LocalConfig{Epochs: 2, Batch: 10, LR: 0.05},
		Factory: factory,
		Seed:    10,
	}
	pre := feddrl.RunVirtual(runCfg, feddrl.NewClientPool(train, feddrl.IndexPartition(assign.ClientIndices), factory, 10), test, feddrl.NewFedDRL(restored))
	cold := feddrl.RunVirtual(runCfg, feddrl.NewClientPool(train, feddrl.IndexPartition(assign.ClientIndices), factory, 10), test, feddrl.NewFedDRL(feddrl.NewAgent(cfg)))

	fmt.Println("deployment on a fresh federation:")
	fmt.Printf("  pre-trained agent: best %.2f%%, early mean %.2f%%\n",
		pre.Best(), pre.Accuracy[:3].Mean())
	fmt.Printf("  cold-start agent:  best %.2f%%, early mean %.2f%%\n",
		cold.Best(), cold.Accuracy[:3].Mean())
}
