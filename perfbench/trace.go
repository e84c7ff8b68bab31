package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"feddrl/internal/engine"
	"feddrl/internal/fl"
	"feddrl/internal/nn"
	"feddrl/internal/rng"
)

// Spans are recorded from outside the program: the benchmark times its
// own calls into each module's exported functions and, for the
// interfaces a caller injects into fl.RunConfig, hands the program
// pass-through wrappers that time each call and return the inner
// result untouched. Spans inside the program (forward/backward/GEMM,
// the grid pool's scheduling) are not visible from here.

// span is one timed call. Parent indexes the recorder's span list (-1
// for a root); Start and End are nanoseconds since the recorder began.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. round is the open
// fl.round span the injected wrappers nest under (-1 outside a round).
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	round int
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), round: -1} }

// begin opens a span under parent and returns its id.
func (r *recorder) begin(name string, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: int64(time.Since(r.t0)), End: -1})
	return len(r.spans) - 1
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = int64(time.Since(r.t0))
	return r.spans[id].dur()
}

// timed records f as one span under parent.
func (r *recorder) timed(name string, parent int, f func()) time.Duration {
	id := r.begin(name, parent)
	f()
	return r.end(id)
}

// parent returns the open round span when there is one, else fallback.
func (r *recorder) parent(fallback int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.round >= 0 {
		return r.round
	}
	return fallback
}

// openRound ends the previous fl.round span, if any, and opens the
// next one under root (root < 0 only closes).
func (r *recorder) openRound(root int) {
	r.mu.Lock()
	now := int64(time.Since(r.t0))
	if r.round >= 0 {
		r.spans[r.round].End = now
		r.round = -1
	}
	if root >= 0 {
		r.spans = append(r.spans, span{Name: "fl.round", Parent: root, Start: now, End: -1})
		r.round = len(r.spans) - 1
	}
	r.mu.Unlock()
}

// durations returns the durations of the spans named name, in ms.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// children returns, in ms, the durations of the direct children of span
// parent named name, or of all of them when name is empty.
func (r *recorder) children(parent int, name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Parent == parent && (name == "" || s.Name == name) {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// write saves every span as JSON.
func (r *recorder) write(path string) error {
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedSelector wraps the round's client selection. Select is the first
// call of every round, so its timestamps mark round boundaries: each call
// closes the previous fl.round span and opens the next under root.
type tracedSelector struct {
	inner fl.Selector
	rec   *recorder
	root  int
}

func (s tracedSelector) Name() string { return s.inner.Name() }

func (s tracedSelector) Select(round, k int, pop fl.Population, r *rng.RNG) []int {
	s.rec.openRound(s.root)
	return s.inner.Select(round, k, pop, r)
}

// tracedAggregator times the impact-factor decision (the core agent for
// FedDRL) as core.decide.
type tracedAggregator struct {
	inner fl.Aggregator
	rec   *recorder
}

func (a tracedAggregator) Name() string { return a.inner.Name() }

func (a tracedAggregator) ImpactFactors(round int, updates []fl.Update) []float64 {
	id := a.rec.begin("core.decide", a.rec.parent(-1))
	defer a.rec.end(id)
	return a.inner.ImpactFactors(round, updates)
}

// tracedMerger times the Eq. 4 merge as fl.merge.
type tracedMerger struct {
	inner fl.Merger
	rec   *recorder
}

func (m tracedMerger) Name() string { return m.inner.Name() }

func (m tracedMerger) Merge(updates []fl.Update, alpha []float64, pool *engine.Pool) []float64 {
	id := m.rec.begin("fl.merge", m.rec.parent(-1))
	defer m.rec.end(id)
	return m.inner.Merge(updates, alpha, pool)
}

func (m tracedMerger) Merge32(updates []fl.Update, alpha []float64, pool *engine.Pool) []float32 {
	id := m.rec.begin("fl.merge", m.rec.parent(-1))
	defer m.rec.end(id)
	return m.inner.Merge32(updates, alpha, pool)
}

// tracedFactory counts and times model construction as nn.build, under
// the open round or else under root.
func tracedFactory(inner nn.Factory, rec *recorder, root int) nn.Factory {
	return func(seed uint64) *nn.Network {
		id := rec.begin("nn.build", rec.parent(root))
		defer rec.end(id)
		return inner(seed)
	}
}
