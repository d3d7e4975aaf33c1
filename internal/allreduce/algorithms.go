package allreduce

import "fmt"

// Algorithm selects the collective implementation, each with a different
// latency/bandwidth trade-off (§8's "different all-reduce algorithms" are
// orthogonal to scheduling; they change where the partition-size sweet spot
// sits, not whether scheduling helps).
type Algorithm int

const (
	// RingAlgo is the bandwidth-optimal segmented ring: volume
	// 2(M-1)/M per byte, latency 2(M-1) hops. Best for large payloads.
	RingAlgo Algorithm = iota
	// HalvingDoubling is recursive halving/doubling: the same
	// bandwidth-optimal volume but only 2·log2(M) rounds, so far lower
	// latency — best for small payloads on large rings.
	HalvingDoubling
	// DoubleTree is a double-binary-tree broadcast/reduce: volume 2 per
	// byte regardless of M (worse than ring for large M), latency
	// 2·log2(M) hops.
	DoubleTree
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case RingAlgo:
		return "ring"
	case HalvingDoubling:
		return "halving-doubling"
	case DoubleTree:
		return "double-tree"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// AlgorithmByName parses an algorithm name.
func AlgorithmByName(name string) (Algorithm, error) {
	switch name {
	case "ring":
		return RingAlgo, nil
	case "halving-doubling", "hd":
		return HalvingDoubling, nil
	case "double-tree", "tree":
		return DoubleTree, nil
	}
	return 0, fmt.Errorf("allreduce: unknown algorithm %q", name)
}

// SetAlgorithm selects the collective implementation; the default is
// RingAlgo.
func (r *Ring) SetAlgorithm(a Algorithm) {
	switch a {
	case RingAlgo, HalvingDoubling, DoubleTree:
		r.algo = a
	default:
		panic(fmt.Sprintf("allreduce: unknown algorithm %d", int(a)))
	}
}

// log2ceil returns ceil(log2(n)) for n >= 1.
func log2ceil(n int) int {
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}

// interTime returns the inter-machine stage time of one collective for the
// active algorithm: bandwidth term plus per-round hop latencies.
func (r *Ring) interTime(bytes int64) (transfer, hops float64) {
	m := float64(r.machines)
	switch r.algo {
	case HalvingDoubling:
		rounds := float64(2 * log2ceil(r.machines))
		return 2 * (m - 1) / m * float64(bytes) / r.bytesPerS, rounds * r.prof.HopLatency
	case DoubleTree:
		rounds := float64(2 * log2ceil(r.machines))
		return 2 * float64(bytes) / r.bytesPerS, rounds * r.prof.HopLatency
	default:
		return 2 * (m - 1) / m * float64(bytes) / r.bytesPerS, 2 * (m - 1) * r.prof.HopLatency
	}
}
