package core

import (
	"fmt"
	"math/rand"
	"sort"

	"bytescheduler/internal/tensor"
)

// PriorityPolicy selects how per-layer priorities are derived. It is a
// strategy on top of Policy.Priority: PriorityDefault keeps whatever
// PriorityFn the Policy carries, while the other values derive a rank table
// from DAG timings (or a seed) and install RankPriority over it. Runners
// materialize the strategy once per run so the same ranks are used by every
// worker's scheduler.
type PriorityPolicy int

const (
	// PriorityDefault keeps the Policy's own PriorityFn untouched.
	PriorityDefault PriorityPolicy = iota
	// PriorityLayer ranks layers by their index from the input — the
	// source paper's priority function (LayerPriority expressed as ranks).
	PriorityLayer
	// PriorityCriticalPath ranks layers by TicTac-style DAG timing
	// analysis: the remaining critical-path length from the start of the
	// layer's transfer to the op that consumes the pulled parameter (its
	// forward op in the next iteration). Longest remaining path first.
	PriorityCriticalPath
	// PriorityRandom ranks layers by a seeded random permutation — the
	// ablation arm that shows ordering (not just partitioning/credit)
	// carries the win.
	PriorityRandom
)

// ParsePriorityPolicy parses a CLI/Experiment spelling of a priority
// policy. The empty string and "default" keep the policy's own priority
// function.
func ParsePriorityPolicy(s string) (PriorityPolicy, error) {
	switch s {
	case "", "default":
		return PriorityDefault, nil
	case "layer":
		return PriorityLayer, nil
	case "tictac", "critical-path", "cp":
		return PriorityCriticalPath, nil
	case "random":
		return PriorityRandom, nil
	}
	return PriorityDefault, fmt.Errorf("core: unknown priority policy %q (want layer, tictac, random or default)", s)
}

func (p PriorityPolicy) String() string {
	switch p {
	case PriorityDefault:
		return "default"
	case PriorityLayer:
		return "layer"
	case PriorityCriticalPath:
		return "tictac"
	case PriorityRandom:
		return "random"
	}
	return fmt.Sprintf("PriorityPolicy(%d)", int(p))
}

// DAGTimings is the per-layer timing profile the critical-path policy
// consumes: the engine's DAG analysis reduced to what the priority function
// needs. FP[i] is layer i's forward compute time in seconds, BP[i] its
// backward compute time (per-op profiled; nil means backward timing is
// unknown and contributes nothing), LayerBytes[i] its communication volume,
// and BytesPerSec the modeled link rate used to convert bytes into transfer
// time on the critical path.
type DAGTimings struct {
	FP          []float64
	BP          []float64
	LayerBytes  []int64
	BytesPerSec float64
}

// Validate reports structural errors in the timing profile.
func (d DAGTimings) Validate() error {
	if len(d.FP) == 0 {
		return fmt.Errorf("core: empty DAG timing profile")
	}
	if len(d.FP) != len(d.LayerBytes) {
		return fmt.Errorf("core: DAG timing profile has %d FP entries but %d layer sizes", len(d.FP), len(d.LayerBytes))
	}
	if d.BP != nil && len(d.BP) != len(d.FP) {
		return fmt.Errorf("core: DAG timing profile has %d FP entries but %d BP entries", len(d.FP), len(d.BP))
	}
	if d.BytesPerSec <= 0 {
		return fmt.Errorf("core: non-positive link rate %v in DAG timing profile", d.BytesPerSec)
	}
	for i, fp := range d.FP {
		if fp < 0 {
			return fmt.Errorf("core: negative forward time %v for layer %d", fp, i)
		}
		if d.BP != nil && d.BP[i] < 0 {
			return fmt.Errorf("core: negative backward time %v for layer %d", d.BP[i], i)
		}
		if d.LayerBytes[i] < 0 {
			return fmt.Errorf("core: negative size %d for layer %d", d.LayerBytes[i], i)
		}
	}
	return nil
}

// CriticalPathRanks converts the timing profile into per-layer ranks
// (rank 0 is scheduled first) by the length of the iteration's critical
// path through each layer. The backward pass produces layer l's gradient
// after processing layers n-1 down to l, the gradient then crosses the
// wire, and the pulled parameter is consumed by layer l's forward op in the
// next iteration, so the path through l is
//
//	R(l) = sum_{i >= l} BP(i) + LayerBytes(l)/BytesPerSec + sum_{i >= l} FP(i)
//
// — the backward segment that produces the gradient, the transfer itself,
// then every forward op from l to the loss. Longest path first; ties break
// toward the lower layer index, which is also what the formula degenerates
// to on a uniform profile. On a tail-heavy profile (large tensors late in
// the DAG, e.g. classifier weights) the tail's transfer term outweighs the
// short forward suffix and the tail outranks front layers — the ordering
// TicTac finds and plain layer index misses. Per-op BP timings pull the
// other way: a gradient that surfaces late in the backward pass (heavy BP
// below it) sits on a longer chain and regains urgency, which a uniform
// backward-compute assumption — a constant per-layer shift — misses
// entirely. With BP nil the backward segment contributes nothing and the
// ranks reduce to the transfer + forward-suffix form.
func (d DAGTimings) CriticalPathRanks() ([]int64, error) {
	remaining, err := d.pathLengths()
	if err != nil {
		return nil, err
	}
	n := len(remaining)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if remaining[order[a]] != remaining[order[b]] {
			return remaining[order[a]] > remaining[order[b]]
		}
		return order[a] < order[b]
	})
	ranks := make([]int64, n)
	for r, l := range order {
		ranks[l] = int64(r)
	}
	return ranks, nil
}

// CriticalPathSec returns the length in seconds of the longest path through
// any layer — max_l R(l) from CriticalPathRanks — which lower-bounds the
// iteration time no scheduler can beat on this profile: the binding chain of
// backward compute, one transfer, and forward compute must execute
// serially. Cluster placement uses it as a job's per-iteration floor, so
// per-op profiled BP timings (not a uniform backward-compute assumption)
// shape where delay-sensitive jobs land.
func (d DAGTimings) CriticalPathSec() (float64, error) {
	remaining, err := d.pathLengths()
	if err != nil {
		return 0, err
	}
	longest := 0.0
	for _, r := range remaining {
		if r > longest {
			longest = r
		}
	}
	return longest, nil
}

// pathLengths validates the profile and returns R(l) for every layer, the
// path length CriticalPathRanks orders by and CriticalPathSec maximizes.
func (d DAGTimings) pathLengths() ([]float64, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	remaining := make([]float64, len(d.FP))
	suffix := 0.0
	for l := len(d.FP) - 1; l >= 0; l-- {
		suffix += d.FP[l]
		if d.BP != nil {
			suffix += d.BP[l]
		}
		remaining[l] = float64(d.LayerBytes[l])/d.BytesPerSec + suffix
	}
	return remaining, nil
}

// LayerRanks returns the identity rank table: rank(l) = l, the paper's
// layer-index priority expressed in the same form as the other strategies.
func LayerRanks(layers int) []int64 {
	ranks := make([]int64, layers)
	for i := range ranks {
		ranks[i] = int64(i)
	}
	return ranks
}

// RandomRanks returns a seeded random permutation of 0..layers-1. The same
// seed yields the same permutation everywhere, so distributed workers (and
// the deterministic simulator) agree on the ablation's ordering.
func RandomRanks(seed int64, layers int) []int64 {
	ranks := LayerRanks(layers)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(layers, func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
	return ranks
}

// Ranks materializes the strategy into a per-layer rank table.
// PriorityDefault returns nil (keep the Policy's own function); the seed is
// only consumed by PriorityRandom.
func (p PriorityPolicy) Ranks(d DAGTimings, seed int64) ([]int64, error) {
	switch p {
	case PriorityDefault:
		return nil, nil
	case PriorityLayer:
		return LayerRanks(len(d.FP)), nil
	case PriorityCriticalPath:
		return d.CriticalPathRanks()
	case PriorityRandom:
		return RandomRanks(seed, len(d.FP)), nil
	}
	return nil, fmt.Errorf("core: unknown priority policy %d", int(p))
}

// RankPriority returns a PriorityFn that maps a tensor's layer index
// through the rank table. Layers outside the table (fused buckets report
// their min member; synthetic probes may exceed the profile) keep their
// index so they sort after ranked layers predictably.
func RankPriority(ranks []int64) PriorityFn {
	return func(t tensor.Tensor, _ uint64) int64 {
		if t.Layer >= 0 && t.Layer < len(ranks) {
			return ranks[t.Layer]
		}
		return int64(t.Layer)
	}
}
