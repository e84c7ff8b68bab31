package fl

import (
	"fmt"

	"feddrl/internal/dataset"
	"feddrl/internal/nn"
	"feddrl/internal/rng"
)

// Partition describes how the samples of one shared dataset are assigned
// to client identities without materializing per-client index lists up
// front: the run loop asks for a client's indices only while that client
// is selected. Implementations must be deterministic — the same (i)
// always yields the same indices — and are read concurrently only
// through AppendIndices on distinct i (ClientPool serializes calls).
type Partition interface {
	// NumClients returns the number of client identities.
	NumClients() int
	// Count returns client i's sample count without materializing the
	// indices.
	Count(i int) int
	// AppendIndices appends client i's sample indices (into the shared
	// dataset) to dst and returns the extended slice.
	AppendIndices(dst []int, i int) []int
}

// IndexPartition adapts a materialized per-client index assignment (the
// [][]int produced by the partition package) to the Partition interface.
// Memory is whatever the assignment already costs; the win over
// BuildClients is that no shard data is copied and only K client states
// exist at a time.
type IndexPartition [][]int

// NumClients returns the number of index lists.
func (p IndexPartition) NumClients() int { return len(p) }

// Count returns len of client i's index list.
func (p IndexPartition) Count(i int) int { return len(p[i]) }

// AppendIndices appends client i's index list to dst.
func (p IndexPartition) AppendIndices(dst []int, i int) []int { return append(dst, p[i]...) }

// CyclicPartition assigns every client Per samples striped cyclically
// over a dataset of N samples: client i owns samples (i*Per+j) mod N for
// j in [0, Per). Storage is O(1) regardless of client count, which makes
// it the canonical partition for million-client scaling runs — a million
// identities over a small dataset costs three ints.
type CyclicPartition struct {
	// N is the shared dataset's sample count.
	N int
	// Per is each client's shard size.
	Per int
	// Clients is the number of client identities.
	Clients int
}

// Validate panics on a degenerate cyclic partition.
func (p CyclicPartition) Validate() {
	if p.N <= 0 || p.Per <= 0 || p.Clients <= 0 {
		panic(fmt.Sprintf("fl: invalid cyclic partition %+v", p))
	}
	// Per > N would wrap the stripe past a full cycle: the shard repeats
	// samples it already holds, and Eq. 4's sample-count weighting
	// silently double-counts them.
	if p.Per > p.N {
		panic(fmt.Sprintf(
			"fl: cyclic partition shard size Per=%d exceeds dataset size N=%d: shards would repeat samples and double-count them in sample-weighted aggregation",
			p.Per, p.N))
	}
}

// NumClients returns the number of client identities.
func (p CyclicPartition) NumClients() int { return p.Clients }

// Count returns Per for every client.
func (p CyclicPartition) Count(i int) int { return p.Per }

// AppendIndices appends client i's cyclic stripe.
func (p CyclicPartition) AppendIndices(dst []int, i int) []int {
	for j := 0; j < p.Per; j++ {
		dst = append(dst, (i*p.Per+j)%p.N)
	}
	return dst
}

// poolSlot is one reusable client state: the slot's Client (model,
// scratch arenas, RNG, minibatch buffers) plus the index buffer its
// current identity's view is built from.
type poolSlot struct {
	c   *Client
	idx []int
}

// ClientPool realizes clients lazily: identities are (seed, Partition
// recipe) pairs, and only the clients selected in the current round
// occupy one of the pool's reusable slots — model, nn.Scratch, loss and
// minibatch buffers are rebound to the selected identity, the shard is
// a zero-copy dataset.View, and the identity's RNG position is restored
// from a snapshot taken when it was last checked in. Per-round memory is
// therefore O(K) in slot state plus O(selected-so-far) in RNG snapshots
// and loss entries, never O(clients).
//
// The determinism contract: a virtual client's model weights always come
// from the broadcast global vector, and its RNG stream derives from its
// identity seed exactly as NewClient's does (seed + id*stride, salted),
// resuming across selections — so a pooled identity trains exactly like
// the BuildClients client with the same base seed and partition.
// ClientPool is not safe for concurrent use; the run loop serializes all
// checkout/checkin calls.
type ClientPool struct {
	data    *dataset.Dataset
	part    Partition
	factory nn.Factory
	seed    uint64

	// elig maps eligible index → identity; nil when every identity has
	// samples (the identity mapping, costing nothing at scale).
	elig []int

	slots []*poolSlot

	// rngStates holds the RNG snapshot of every identity selected so
	// far; losses its latest global-model inference loss. Both are
	// sparse: at most rounds×K entries, independent of client count.
	rngStates map[int]rng.State
	losses    map[int]float64
}

// NewClientPool builds a virtual-client pool over a shared dataset and a
// partition. seed plays the same role as BuildClients' seed: client i's
// model seed is seed + i*stride, its RNG stream the salted derivative.
// Slots are created lazily as the round loop occupies them, so a pool
// costs nothing until a run starts.
func NewClientPool(d *dataset.Dataset, part Partition, factory nn.Factory, seed uint64) *ClientPool {
	if d == nil || d.N == 0 {
		panic("fl: NewClientPool with no data")
	}
	if part == nil || part.NumClients() == 0 {
		panic("fl: NewClientPool with empty partition")
	}
	if factory == nil {
		panic("fl: NewClientPool with nil factory")
	}
	// Partitions that know how to check themselves (CyclicPartition's
	// shard-size bounds, for one) are checked at pool construction, not
	// first checkout — a bad recipe should fail before training starts.
	if v, ok := part.(interface{ Validate() }); ok {
		v.Validate()
	}
	p := &ClientPool{
		data:      d,
		part:      part,
		factory:   factory,
		seed:      seed,
		rngStates: make(map[int]rng.State),
		losses:    make(map[int]float64),
	}
	// Only identities with samples are eligible, in identity order.
	n := part.NumClients()
	for i := 0; i < n; i++ {
		if part.Count(i) <= 0 {
			if p.elig == nil {
				p.elig = make([]int, 0, n-1)
				for j := 0; j < i; j++ {
					p.elig = append(p.elig, j)
				}
			}
			continue
		}
		if p.elig != nil {
			p.elig = append(p.elig, i)
		}
	}
	if p.elig != nil && len(p.elig) == 0 {
		panic("fl: all client shards are empty")
	}
	return p
}

// identity maps an eligible index to its client identity.
func (p *ClientPool) identity(i int) int {
	if p.elig != nil {
		return p.elig[i]
	}
	return i
}

// NumClients returns the number of eligible identities.
func (p *ClientPool) NumClients() int {
	if p.elig != nil {
		return len(p.elig)
	}
	return p.part.NumClients()
}

// SampleCount returns eligible client i's shard size.
func (p *ClientPool) SampleCount(i int) int { return p.part.Count(p.identity(i)) }

// LastLoss returns eligible client i's most recent global-model
// inference loss, 0 when never selected.
func (p *ClientPool) LastLoss(i int) float64 { return p.losses[p.identity(i)] }

// noteLoss records the loss under the client's identity.
func (p *ClientPool) noteLoss(i int, v float64) { p.losses[p.identity(i)] = v }

// checkout binds eligible client i to the given slot: the slot's index
// buffer is refilled from the partition, its Data becomes a fresh
// zero-copy view, and its RNG is restored to the identity's snapshot
// (or seeded afresh on first selection). The slot's model weights are
// not touched — Client.Run overwrites them with the broadcast global
// vector.
func (p *ClientPool) checkout(slot, i int) *Client {
	for len(p.slots) <= slot {
		p.slots = append(p.slots, &poolSlot{c: newClientCore(p.factory, p.seed)})
	}
	id := p.identity(i)
	s := p.slots[slot]
	s.idx = p.part.AppendIndices(s.idx[:0], id)
	c := s.c
	c.ID = id
	c.Data = p.data.View(s.idx)
	if st, ok := p.rngStates[id]; ok {
		c.r.Restore(st)
	} else {
		c.r.Reseed(clientSeed(p.seed, id) ^ clientRNGSalt)
	}
	return c
}

// checkin snapshots the identity's RNG position so its stream resumes
// where it left off at the next selection, as a standalone client's RNG
// carries over between rounds.
func (p *ClientPool) checkin(slot int, c *Client) {
	p.rngStates[c.ID] = c.r.State()
}
