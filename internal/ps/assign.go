package ps

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// Strategy selects the algorithm that places assignment units (whole
// tensors under RoundRobinTensor, individual partitions under
// SpreadPartitions) onto parameter servers.
//
// The paper's §2/§6 analysis shows the choice matters twice over: the naïve
// round-robin default hot-spots one server when tensor sizes are skewed
// (Transformer's embedding, VGG16's fc6), and the hottest server bounds the
// whole cluster's goodput. The strategies below mitigate that imbalance
// without involving the scheduler:
//
//   - StrategyRoundRobin — the MXNet/ps-lite default the paper measures
//     against: units go to servers in first-use order, ignoring size.
//   - StrategySizeBalanced — online LPT-style greedy: each unit goes to the
//     currently least-loaded server by assigned bytes. Max server load is
//     bounded by mean + max-unit-size, so skew collapses once the largest
//     unit is small relative to the total (exactly what partitioning
//     achieves).
//   - StrategyHashRing — consistent hashing with virtual nodes: placement
//     depends only on the unit's key and the server count, and a deployment
//     of n+1 servers moves only the units the (n+1)th server claims from
//     the placement over n, not a reshuffle of everything.
type Strategy int

const (
	// StrategyRoundRobin places units in first-use order, one server after
	// another — the paper's baseline and this package's default.
	StrategyRoundRobin Strategy = iota
	// StrategySizeBalanced places each unit on the least-loaded server by
	// cumulative assigned bytes (online greedy LPT).
	StrategySizeBalanced
	// StrategyHashRing places units by consistent hashing of their keys
	// over a virtual-node ring.
	StrategyHashRing
	// StrategyDelayAware places each unit where it would finish earliest:
	// cumulative assigned bytes over the link rate plus the target's network
	// delay (Dally-style delay-aware scoring). With uniform delays it
	// degenerates to size-balanced greedy; with heterogeneous delays it
	// trades load for proximity, the knob cluster-level job placement turns.
	StrategyDelayAware
)

// String returns the canonical strategy name.
func (s Strategy) String() string {
	switch s {
	case StrategyRoundRobin:
		return "round-robin"
	case StrategySizeBalanced:
		return "size-balanced"
	case StrategyHashRing:
		return "hash-ring"
	case StrategyDelayAware:
		return "delay-aware"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy resolves a strategy from a CLI/config spelling. Accepted
// (case-insensitive): "round-robin"/"rr"/"" (default), "size-balanced"/
// "lpt"/"balanced", "hash-ring"/"ring"/"hash", "delay-aware"/"delay"/
// "dally".
func ParseStrategy(name string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "round-robin", "roundrobin", "rr":
		return StrategyRoundRobin, nil
	case "size-balanced", "sizebalanced", "balanced", "lpt":
		return StrategySizeBalanced, nil
	case "hash-ring", "hashring", "ring", "hash":
		return StrategyHashRing, nil
	case "delay-aware", "delayaware", "delay", "dally":
		return StrategyDelayAware, nil
	}
	return 0, fmt.Errorf("ps: unknown assignment strategy %q", name)
}

// StrategyNames returns the canonical names of every strategy, for CLI help
// text.
func StrategyNames() []string {
	return []string{
		StrategyRoundRobin.String(),
		StrategySizeBalanced.String(),
		StrategyHashRing.String(),
		StrategyDelayAware.String(),
	}
}

// Assigner decides which server an assignment unit lands on. Implementations
// are deterministic and may be stateful (round-robin advances a cursor,
// size-balanced tracks load); Assign is called once per unit — callers cache
// the result, so placement is sticky for the unit's lifetime.
//
// Assigners are not safe for concurrent use; the Cluster serializes calls
// through the simulation engine, and live callers must do their own locking.
type Assigner interface {
	// Name returns the strategy name, e.g. "size-balanced".
	Name() string
	// Assign places unit u with the given byte size and returns its server
	// index in [0, servers).
	Assign(u Unit, bytes int64) int
	// Load returns the cumulative bytes assigned to each server so far —
	// the planned load, as opposed to the pushed traffic
	// Cluster.LoadImbalance reads.
	Load() []int64
}

// Unit identifies an assignment unit: a whole tensor (Part < 0) or one
// partition of it. Only the hash ring renders it (see String); the other
// strategies place by arrival and size alone.
type Unit struct {
	Layer int
	Name  string
	Part  int
}

// String returns the unit's placement key, "L<layer>/<name>" for a whole
// tensor and "L<layer>/<name>#<part>" for a partition.
func (u Unit) String() string {
	if u.Part < 0 {
		return fmt.Sprintf("L%d/%s", u.Layer, u.Name)
	}
	return fmt.Sprintf("L%d/%s#%d", u.Layer, u.Name, u.Part)
}

// NewAssigner constructs the assigner for a strategy over the given server
// count. It panics on servers <= 0 (a configuration bug).
func NewAssigner(s Strategy, servers int) Assigner {
	if servers <= 0 {
		panic(fmt.Sprintf("ps: assigner needs at least one server, got %d", servers))
	}
	switch s {
	case StrategySizeBalanced:
		return newSizeBalanced(servers)
	case StrategyHashRing:
		return newHashRing(servers, DefaultVirtualNodes)
	case StrategyDelayAware:
		// Without a topology there is no delay vector; zero delays make the
		// score pure load/rate, i.e. size-balanced greedy.
		return newDelayAware(servers, make([]float64, servers), 1)
	default:
		return newRoundRobin(servers)
	}
}

// loadTracker is the shared per-server assigned-bytes accounting.
type loadTracker struct {
	load []int64
}

func newLoadTracker(servers int) loadTracker {
	return loadTracker{load: make([]int64, servers)}
}

// Load returns a copy of the per-server assigned bytes.
func (t *loadTracker) Load() []int64 {
	out := make([]int64, len(t.load))
	copy(out, t.load)
	return out
}

// RoundRobin is the paper's baseline placement: units land on servers in
// first-use order regardless of size. With skewed unit sizes this hot-spots
// whichever server draws the big units — the imbalance §6.2 measures.
type RoundRobin struct {
	loadTracker
	next int
}

// newRoundRobin returns a round-robin assigner over servers.
func newRoundRobin(servers int) *RoundRobin {
	return &RoundRobin{loadTracker: newLoadTracker(servers)}
}

// Name implements Assigner.
func (r *RoundRobin) Name() string { return StrategyRoundRobin.String() }

// Assign implements Assigner: the next server in rotation, ignoring the unit
// and its size.
func (r *RoundRobin) Assign(_ Unit, bytes int64) int {
	s := r.next
	r.next = (r.next + 1) % len(r.load)
	r.load[s] += bytes
	return s
}

// SizeBalanced is the online greedy LPT assigner: each unit goes to the
// server with the least cumulative assigned bytes (ties break to the lowest
// index, keeping placement deterministic). Classic makespan analysis bounds
// the hottest server at mean-load + max-unit-size, so the residual skew
// shrinks as units shrink — partitioned tensors balance almost perfectly.
type SizeBalanced struct {
	loadTracker
}

// newSizeBalanced returns a size-balanced (LPT-style) assigner over servers.
func newSizeBalanced(servers int) *SizeBalanced {
	return &SizeBalanced{loadTracker: newLoadTracker(servers)}
}

// Name implements Assigner.
func (b *SizeBalanced) Name() string { return StrategySizeBalanced.String() }

// Assign implements Assigner: the least-loaded server by assigned bytes.
func (b *SizeBalanced) Assign(_ Unit, bytes int64) int {
	best := 0
	for s := 1; s < len(b.load); s++ {
		if b.load[s] < b.load[best] {
			best = s
		}
	}
	b.load[best] += bytes
	return best
}

// DelayAware is the network-sensitive assigner: each unit lands on the
// server where its transfer would finish earliest, scoring candidate s as
//
//	(load[s] + bytes) / bytesPerSec + delay[s]
//
// — queueing behind the bytes already assigned there, then paying the
// server's network delay. Ties break to the lowest index, keeping placement
// deterministic. With uniform delays the delay term cancels out of the
// argmin and the assigner degenerates to SizeBalanced; with heterogeneous
// delays it keeps nearby servers busier until the load gap costs more than
// the extra hops — Dally's delay-aware scoring. The cluster layer reuses the
// same score for job→node placement.
type DelayAware struct {
	loadTracker
	delay []float64 // seconds of one-way delay per server
	rate  float64   // link bytes/sec converting load into queueing time
}

// newDelayAware returns a delay-aware assigner over len(delaySec) = servers
// targets. It panics on a delay/server count mismatch, a negative delay, or
// a non-positive rate (configuration bugs, same contract as NewAssigner).
func newDelayAware(servers int, delaySec []float64, bytesPerSec float64) *DelayAware {
	if servers <= 0 {
		panic(fmt.Sprintf("ps: assigner needs at least one server, got %d", servers))
	}
	if len(delaySec) != servers {
		panic(fmt.Sprintf("ps: delay-aware assigner has %d servers but %d delays", servers, len(delaySec)))
	}
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("ps: non-positive link rate %v for delay-aware assigner", bytesPerSec))
	}
	delays := make([]float64, servers)
	for i, d := range delaySec {
		if d < 0 {
			panic(fmt.Sprintf("ps: negative delay %v for server %d", d, i))
		}
		delays[i] = d
	}
	return &DelayAware{loadTracker: newLoadTracker(servers), delay: delays, rate: bytesPerSec}
}

// Name implements Assigner.
func (d *DelayAware) Name() string { return StrategyDelayAware.String() }

// Assign implements Assigner: the server with the earliest estimated finish
// for this unit.
func (d *DelayAware) Assign(_ Unit, bytes int64) int {
	best := 0
	bestScore := d.score(0, bytes)
	for s := 1; s < len(d.load); s++ {
		if sc := d.score(s, bytes); sc < bestScore {
			best, bestScore = s, sc
		}
	}
	d.load[best] += bytes
	return best
}

// score estimates when a unit of the given size would finish on server s.
func (d *DelayAware) score(s int, bytes int64) float64 {
	return (float64(d.load[s])+float64(bytes))/d.rate + d.delay[s]
}

// DefaultVirtualNodes is the number of ring points per server for the
// hash-ring assigner. More virtual nodes smooth the per-server key share
// (stddev ~ 1/sqrt(vnodes)) at the cost of a larger ring to search.
const DefaultVirtualNodes = 128

// HashRing is a consistent-hash assigner: every server contributes vnodes
// points on a 64-bit ring, and a unit lands on the first point clockwise of
// the hash of its key, Unit.String. Placement depends only on the key and
// the server count: a ring over n+1 servers places every unit where the
// ring over n does, except the units server n's points claim, so growing
// the deployment by one server moves exactly that server's share.
type HashRing struct {
	loadTracker
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	server int
}

// newHashRing returns a consistent-hash assigner over servers with the given
// number of virtual nodes per server.
func newHashRing(servers, vnodes int) *HashRing {
	r := &HashRing{loadTracker: newLoadTracker(servers), points: make([]ringPoint, 0, servers*vnodes)}
	for s := 0; s < servers; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   hash64(fmt.Sprintf("server-%d#%d", s, v)),
				server: s,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Name implements Assigner.
func (r *HashRing) Name() string { return StrategyHashRing.String() }

// Assign implements Assigner: the first ring point clockwise of the hash of
// the unit's key.
func (r *HashRing) Assign(u Unit, bytes int64) int {
	h := hash64(u.String())
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	s := r.points[i].server
	r.load[s] += bytes
	return s
}

// KeyHash is the assigners' stable FNV-1a key hash, exported so other
// layers can partition the same key space consistently — the live netps
// server uses it to pick the intra-server shard for a key, mirroring how
// the hash-ring assigner places keys across servers.
func KeyHash(key string) uint64 { return hash64(key) }

// hash64 is FNV-1a over the key — stable across processes and Go versions,
// unlike the runtime's map hash.
func hash64(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key)) //nolint:errcheck // fnv never fails
	return h.Sum64()
}

// Imbalance returns max/mean of a load vector; 1.0 is perfectly balanced, 0
// for an empty or all-zero vector. It is the same statistic as
// Cluster.LoadImbalance, usable on an Assigner's planned load.
func Imbalance(load []int64) float64 {
	var sum, max int64
	for _, b := range load {
		sum += b
		if b > max {
			max = b
		}
	}
	if sum == 0 || len(load) == 0 {
		return 0
	}
	return float64(max) / (float64(sum) / float64(len(load)))
}
