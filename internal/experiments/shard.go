package experiments

import (
	"fmt"
	"reflect"
	"strings"
)

// Cross-process sharding and seed replication. A grid experiment's job
// list is deterministic given (scale, seed, seeds), so any process can
// recompute it and take a 1/n slice by index: shard i of n runs the
// jobs whose position j in the canonical list satisfies j % n == i-1.
// Shards write ArtifactSet files; MergeSets + RenderSet recombine them
// into the exact output an unsharded run produces.

// seedStride separates seed replicates (and matches the headline
// runner's historical stride, so its cells stay bit-identical).
const seedStride = 1009

// replicateJobs expands a job list over m seed replicates: replicate r
// shifts every cell seed by r*seedStride. m <= 1 returns jobs as-is.
func replicateJobs(jobs []CellSpec, seeds int) []CellSpec {
	if seeds <= 1 {
		return jobs
	}
	out := make([]CellSpec, 0, len(jobs)*seeds)
	for r := 0; r < seeds; r++ {
		for _, j := range jobs {
			j.Seed += uint64(r) * seedStride
			out = append(out, j)
		}
	}
	return out
}

// replicateSpec returns replicate r of a base cell spec.
func replicateSpec(spec CellSpec, r int) CellSpec {
	spec.Seed += uint64(r) * seedStride
	return spec
}

func shardableNames() []string {
	var out []string
	for _, n := range Names() {
		if Registry[n].Shardable() {
			out = append(out, n)
		}
	}
	return out
}

func seedsNames() []string {
	var out []string
	for _, n := range Names() {
		if Registry[n].SeedsRender != nil {
			out = append(out, n)
		}
	}
	return out
}

// jobsFor resolves a grid experiment and enumerates its (possibly
// seed-replicated) canonical job list — the single validation point for
// sharding and seed-replication support.
func jobsFor(name string, s Scale, seed uint64, seeds int) (Experiment, []CellSpec, error) {
	e, ok := Registry[name]
	if !ok {
		return Experiment{}, nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", name, Names())
	}
	if seeds > 1 && (e.Jobs == nil || e.SeedsRender == nil) {
		return Experiment{}, nil, fmt.Errorf("experiments: %q does not support seed replication (supported: %v)", name, seedsNames())
	}
	if e.Jobs == nil {
		return Experiment{}, nil, fmt.Errorf("experiments: %q is a monolithic experiment and cannot be sharded (shardable: %v)", name, shardableNames())
	}
	return e, replicateJobs(e.Jobs(s, seed), seeds), nil
}

// ShardJobs returns the deterministic slice of jobs owned by shard
// index of count (1-based index). The union over all indices is exactly
// jobs, and slices are pairwise disjoint.
func ShardJobs(jobs []CellSpec, index, count int) ([]CellSpec, error) {
	if count < 1 || index < 1 || index > count {
		return nil, fmt.Errorf("experiments: shard %d/%d out of range (want 1 <= i <= n)", index, count)
	}
	var out []CellSpec
	for j, spec := range jobs {
		if j%count == index-1 {
			out = append(out, spec)
		}
	}
	return out, nil
}

// RunShard computes shard index/count of a grid experiment (optionally
// seed-replicated) and returns its artifact set, ready to SaveFile.
// The slice runs concurrently on the scale's engine pool, exactly like
// the corresponding cells of an unsharded run.
func RunShard(name string, s Scale, seed uint64, seeds, index, count int) (*ArtifactSet, error) {
	return RunShardCached(name, s, seed, seeds, index, count, nil)
}

// RunShardCached is RunShard backed by a content-addressed artifact
// cache: the shard's artifact set is assembled from cache hits where
// possible and only the missing cells are computed (and written back).
// This is also the kill-and-resume path — rerunning an interrupted
// shard against the same cache recomputes only the cells it had not
// finished.
func RunShardCached(name string, s Scale, seed uint64, seeds, index, count int, cache *Cache) (*ArtifactSet, error) {
	_, jobs, err := jobsFor(name, s, seed, seeds)
	if err != nil {
		return nil, err
	}
	slice, err := ShardJobs(jobs, index, count)
	if err != nil {
		return nil, err
	}
	st := newStoreCached(s, cache)
	defer st.close()
	if err := st.prefetch(slice); err != nil {
		return nil, err
	}
	set := NewArtifactSet(name, s, seed, seeds)
	for _, spec := range slice {
		set.Add(st.get(spec))
	}
	return set, nil
}

// MergeSets combines shard artifact sets into one. All sets must come
// from the same invocation (experiment, scale, rounds, seed, seeds);
// a cell appearing in several shards must carry identical payloads.
func MergeSets(sets []*ArtifactSet) (*ArtifactSet, error) {
	if len(sets) == 0 {
		return nil, fmt.Errorf("experiments: merge of zero artifact sets")
	}
	ref := sets[0]
	merged := &ArtifactSet{
		Experiment: ref.Experiment,
		ScaleName:  ref.ScaleName,
		Rounds:     ref.Rounds,
		Seed:       ref.Seed,
		Seeds:      ref.Seeds,
		Cells:      map[string]*CellArtifact{},
	}
	for i, set := range sets {
		if set.Experiment != ref.Experiment || set.ScaleName != ref.ScaleName ||
			set.Rounds != ref.Rounds || set.Seed != ref.Seed || set.Seeds != ref.Seeds {
			return nil, fmt.Errorf("experiments: shard %d header (%s/%s r%d seed %d seeds %d) does not match shard 0 (%s/%s r%d seed %d seeds %d)",
				i, set.Experiment, set.ScaleName, set.Rounds, set.Seed, set.Seeds,
				ref.Experiment, ref.ScaleName, ref.Rounds, ref.Seed, ref.Seeds)
		}
		for _, key := range set.order {
			a := set.Cells[key]
			if prev, ok := merged.Cells[key]; ok {
				if !reflect.DeepEqual(prev, a) {
					return nil, fmt.Errorf("experiments: shards disagree on cell %s", key)
				}
				continue
			}
			merged.Add(a)
		}
	}
	return merged, nil
}

// RenderSet renders a (merged) artifact set into the experiment's text
// output — byte-identical to what the unsharded run prints, because the
// unsharded path renders from the very same artifacts. The caller
// supplies the Scale (typically ScaleByName(set.ScaleName) with Rounds
// restored from the set); it must match the set's header.
func RenderSet(s Scale, set *ArtifactSet) (string, error) {
	if s.Name != set.ScaleName {
		return "", fmt.Errorf("experiments: scale %q does not match artifact scale %q", s.Name, set.ScaleName)
	}
	if s.Rounds != set.Rounds {
		return "", fmt.Errorf("experiments: scale rounds %d do not match artifact rounds %d", s.Rounds, set.Rounds)
	}
	e, jobs, err := jobsFor(set.Experiment, s, set.Seed, set.Seeds)
	if err != nil {
		return "", err
	}
	if missing := set.MissingCells(jobs); len(missing) > 0 {
		return "", fmt.Errorf("experiments: artifact set is missing %d of %d cells (incomplete shard merge?): %s",
			len(missing), len(jobs), strings.Join(missing, ", "))
	}
	get := func(spec CellSpec) *CellArtifact {
		a, ok := set.Get(spec)
		if !ok {
			panic(fmt.Sprintf("experiments: renderer requested cell %s outside the job list", spec.Key()))
		}
		return a
	}
	if set.Seeds > 1 {
		return e.SeedsRender(s, set.Seed, set.Seeds, get), nil
	}
	return e.Render(s, set.Seed, get), nil
}

// RunSeeds executes a grid experiment with m seed replicates per cell
// and renders mean±std columns. seeds <= 1 falls back to Run. The
// replicated jobs flow through the same pipeline as sharded runs, so
// -shard and -seeds compose.
func RunSeeds(name string, s Scale, seed uint64, seeds int) (string, error) {
	return RunSeedsCached(name, s, seed, seeds, nil)
}

// RunSeedsCached is RunSeeds backed by a content-addressed artifact
// cache. Seed replicates are ordinary cells (each replicate has its own
// absolute seed, hence its own content address), so a multi-seed run
// reuses the single-seed cells a previous run already cached.
func RunSeedsCached(name string, s Scale, seed uint64, seeds int, cache *Cache) (string, error) {
	if seeds <= 1 {
		return RunCached(name, s, seed, cache)
	}
	e, jobs, err := jobsFor(name, s, seed, seeds)
	if err != nil {
		return "", err
	}
	st := newStoreCached(s, cache)
	defer st.close()
	if err := st.prefetch(jobs); err != nil {
		return "", err
	}
	return e.SeedsRender(s, seed, seeds, st.get), nil
}
