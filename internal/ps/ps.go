// Package ps implements the parameter-server gradient synchronization
// substrate: sharded key-value servers that aggregate pushed gradients and
// serve parameter pulls over a network fabric.
//
// The package reproduces the PS behaviours the paper's evaluation depends
// on:
//
//   - push/update/pull with synchronous (wait for all workers) or
//     asynchronous aggregation;
//   - tensor-to-server assignment at two granularities (whole tensors, the
//     MXNet default, versus independent partitions when the scheduler
//     partitions tensors) under a pluggable placement Strategy: the naïve
//     round-robin that causes severe load imbalance when one tensor
//     dominates (§6.2, Transformer/VGG16), an online LPT size-balanced
//     greedy that mitigates it, and a consistent hash-ring whose placement
//     survives server churn (see Assigner);
//   - partition-granularity pulls: a partition can be pulled as soon as it
//     is aggregated, even if the rest of its tensor is still being pushed
//     (Theorem 1, condition 3).
package ps

import (
	"fmt"

	"bytescheduler/internal/network"
	"bytescheduler/internal/recycle"
	"bytescheduler/internal/sim"
	"bytescheduler/internal/tensor"
)

// Assignment selects the tensor-to-server placement granularity: what the
// unit of assignment is. The placement algorithm over those units is chosen
// separately by Config.Strategy (see Assigner).
type Assignment int

const (
	// RoundRobinTensor assigns each whole tensor to one server in order of
	// first use — MXNet's default granularity, and the source of the
	// paper's load imbalance when tensor sizes are skewed.
	RoundRobinTensor Assignment = iota
	// SpreadPartitions assigns each partition independently, so a
	// partitioned large tensor spreads across all servers.
	SpreadPartitions
)

// String returns the assignment granularity name.
func (a Assignment) String() string {
	switch a {
	case RoundRobinTensor:
		return "round-robin-tensor"
	case SpreadPartitions:
		return "spread-partitions"
	}
	return fmt.Sprintf("Assignment(%d)", int(a))
}

// Config describes a PS deployment.
type Config struct {
	// Workers is the number of worker machines (fabric nodes 0..Workers-1).
	Workers int
	// Servers is the number of parameter-server machines (fabric nodes
	// Workers..Workers+Servers-1). The paper uses Servers == Workers.
	Servers int
	// Assignment is the placement granularity: whole tensors
	// (RoundRobinTensor) or independent partitions (SpreadPartitions).
	Assignment Assignment
	// Strategy is the placement algorithm over assignment units:
	// round-robin (default, the paper's baseline), size-balanced LPT, or
	// consistent hash-ring. See Strategy and Assigner.
	Strategy Strategy
	// Async enables asynchronous training: a worker's pull becomes ready
	// as soon as its own push is applied, without waiting for the other
	// workers.
	Async bool
}

// updateSecPerByte is the server-side optimizer cost per aggregated byte:
// a ~25 GB/s memory-bound SGD update.
const updateSecPerByte = 1.0 / 25e9

// shardBytes emulates MXNet's "big array" behavior: a tensor partition
// larger than this is internally striped across all servers as one chunk
// per server (still one FIFO message each, no scheduling involved). This is
// a property of the vanilla PS, not of ByteScheduler: it bounds how badly a
// single huge tensor can hot-spot one server in the baseline.
const shardBytes = 32 << 20

// Receiver is told of a partition's progress through the cluster. One record
// on the caller's side (the plugin keeps one per tensor and worker, reused
// across iterations) stands in for four closures per partition; part is
// Sub.Index.
type Receiver interface {
	// PushAcked: the sender learned the whole partition's push completed —
	// the scheduler's credit-return signal.
	PushAcked(part int)
	// Pullable: the partition can now be pulled (see WhenPullable).
	Pullable(part int)
	// PullDelivered: the pulled data has arrived at the worker — what the
	// next iteration's forward pass waits on.
	PullDelivered(part int)
	// PullAcked: the pull's credit may be returned.
	PullAcked(part int)
}

// Cluster wires workers and servers over a fabric.
type Cluster struct {
	eng *sim.Engine
	fab *network.Fabric
	cfg Config

	// updateSecPerByte and shardBytes start at the package constants; a
	// test may assign them (0 disables update cost or striping).
	updateSecPerByte float64
	shardBytes       int64

	assigner Assigner
	ids      map[Unit]int // TensorID's intern table, by whole-tensor unit
	tensors  []placement  // by interned id

	live      int     // aggregation slots in use
	recvBytes []int64 // per-server pushed bytes, for load accounting

	// A request is recycled at its last ack (a watch: its last chunk), an
	// aggregation slot at its last pull's delivery — before the callback
	// that step owes runs, so no live callback reaches a recycled record.
	freeReqs recycle.List[*request]
	freeAggs recycle.List[*aggState]
}

// placement is a tensor's sticky server assignment, stored as server+1 so
// the zero value means "not assigned yet", and the tensor's live
// aggregation slots.
type placement struct {
	id     Unit  // the whole tensor
	whole  int   // RoundRobinTensor: the tensor's one server
	byPart []int // SpreadPartitions: by partition index
	// aggs holds, by partition index, a chain of that partition's live
	// slots, one per (iteration, chunk): one, or two while iterations
	// overlap; async mode may chain more.
	aggs []*aggState
}

// The kinds of request.
const (
	reqPush = iota
	reqPull
	reqWatch
)

// request is one Push, Pull or WhenPullable in progress: the Sink of its
// transfers and the countdown over its chunks.
type request struct {
	c            *Cluster
	kind         int
	rcv          Receiver
	iter, worker int
	tensor, part int
	left         int // chunks still to deliver (pull) or become pullable (watch)
	acks         int // chunks still to be acked
}

// aggState is one chunk's aggregation on its server. It is its own update
// event: Fire(worker) applies one worker's push in async mode, Fire(-1)
// the aggregate of all of them in sync mode.
type aggState struct {
	c              *Cluster
	next           *aggState // the partition's next live slot
	iter, chunk    int
	server         int
	bytes          int64
	pushesApplied  int
	updated        bool
	applied        []bool     // by worker; async mode
	waiting        []*request // pulls issued before the chunk was ready
	watchers       []*request
	pullsDelivered int
}

// New creates a PS cluster over fab, whose node count must equal
// cfg.Workers+cfg.Servers.
func New(eng *sim.Engine, fab *network.Fabric, cfg Config) (*Cluster, error) {
	if cfg.Workers <= 0 || cfg.Servers <= 0 {
		return nil, fmt.Errorf("ps: need at least one worker and one server, got %d/%d", cfg.Workers, cfg.Servers)
	}
	if fab.Nodes() != cfg.Workers+cfg.Servers {
		return nil, fmt.Errorf("ps: fabric has %d nodes, want %d", fab.Nodes(), cfg.Workers+cfg.Servers)
	}
	c := &Cluster{
		eng:       eng,
		fab:       fab,
		cfg:       cfg,
		ids:       make(map[Unit]int),
		recvBytes: make([]int64, cfg.Servers),
	}
	c.Reset(cfg)
	return c, nil
}

// Reset returns the cluster to the state New leaves it in, under cfg, which
// must keep the worker and server counts: no traffic seen, no placement
// made, no aggregation slot live, the update cost and striping threshold at
// their defaults. Interned tensor ids stay valid, and the slot and request
// free lists keep what they hold; a slot still live is dropped, so the
// engine and fabric must have been reset too.
func (c *Cluster) Reset(cfg Config) {
	if cfg.Workers != c.cfg.Workers || cfg.Servers != c.cfg.Servers {
		panic(fmt.Sprintf("ps: reset to %d/%d workers/servers, built for %d/%d", cfg.Workers, cfg.Servers, c.cfg.Workers, c.cfg.Servers))
	}
	c.cfg = cfg
	c.updateSecPerByte, c.shardBytes = updateSecPerByte, shardBytes
	c.assigner = NewAssigner(cfg.Strategy, cfg.Servers)
	for i := range c.tensors {
		pl := &c.tensors[i]
		pl.whole = 0
		clear(pl.byPart)
		clear(pl.aggs)
	}
	c.live = 0
	clear(c.recvBytes)
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// ServerLoad returns the cumulative pushed bytes received by each server.
func (c *Cluster) ServerLoad() []int64 {
	out := make([]int64, len(c.recvBytes))
	copy(out, c.recvBytes)
	return out
}

// TensorID interns a tensor: Push, Pull and WhenPullable take the small
// integer in place of its (layer, name) pair, so no hop hashes a string.
// Intern once per tensor and keep the id.
func (c *Cluster) TensorID(t tensor.Tensor) int {
	key := Unit{Layer: t.Layer, Name: t.Name, Part: -1}
	id, ok := c.ids[key]
	if !ok {
		id = len(c.tensors)
		c.ids[key] = id
		c.tensors = append(c.tensors, placement{id: key})
	}
	return id
}

// ServerOf returns the server index (0-based) a partition is assigned to.
// Assignment is sticky: the first call for a tensor/partition decides, by
// consulting the configured Assigner once per unit and caching the result.
func (c *Cluster) ServerOf(sub tensor.Sub) int {
	return c.serverOf(c.TensorID(sub.Parent), sub)
}

func (c *Cluster) serverOf(tid int, sub tensor.Sub) int {
	pl := &c.tensors[tid]
	spread := c.cfg.Assignment == SpreadPartitions
	slot, bytes := &pl.whole, sub.Parent.Bytes
	if spread {
		for len(pl.byPart) <= sub.Index {
			pl.byPart = append(pl.byPart, 0)
		}
		slot, bytes = &pl.byPart[sub.Index], sub.Bytes
	}
	if *slot == 0 {
		unit := pl.id
		if spread {
			unit.Part = sub.Index
		}
		*slot = c.assigner.Assign(unit, bytes) + 1
	}
	return *slot - 1
}

// PlannedLoad returns the per-server bytes the assigner has placed so far —
// the *planned* load, versus ServerLoad's observed pushed traffic (which
// counts every worker's push and big-array stripes).
func (c *Cluster) PlannedLoad() []int64 { return c.assigner.Load() }

func (c *Cluster) serverNode(server int) int { return c.cfg.Workers + server }

// chunks returns how many server-directed pieces a partition travels as:
// one, or a stripe per server when big-array sharding applies.
func (c *Cluster) chunks(bytes int64) int {
	if c.shardBytes <= 0 || bytes <= c.shardBytes {
		return 1
	}
	return c.cfg.Servers
}

// chunk returns the server and size of stripe i of n. Stripes start at the
// partition's home server for determinism; the last takes the remainder.
func (c *Cluster) chunk(home int, bytes int64, n, i int) (server int, size int64) {
	size = bytes / int64(n)
	if i == n-1 {
		size = bytes - size*int64(n-1)
	}
	return (home + i) % c.cfg.Servers, size
}

// begin opens a request and returns it with its home server and chunk count.
func (c *Cluster) begin(kind, iter, worker, tid int, sub tensor.Sub, rcv Receiver) (r *request, home, chunks int) {
	if worker < 0 || worker >= c.cfg.Workers {
		panic(fmt.Sprintf("ps: worker %d out of range", worker))
	}
	home, chunks = c.serverOf(tid, sub), c.chunks(sub.Bytes)
	r = recycle.Take(&c.freeReqs)
	*r = request{c: c, kind: kind, rcv: rcv, iter: iter, worker: worker, tensor: tid, part: sub.Index, left: chunks, acks: chunks}
	return r, home, chunks
}

// link returns the link in r's partition chain that holds chunk's slot for
// r's iteration, or the nil link at the chain's end if there is none yet.
func (c *Cluster) link(r *request, chunk int) **aggState {
	pl := &c.tensors[r.tensor]
	for len(pl.aggs) <= r.part {
		pl.aggs = append(pl.aggs, nil)
	}
	l := &pl.aggs[r.part]
	for *l != nil && ((*l).iter != r.iter || (*l).chunk != chunk) {
		l = &(*l).next
	}
	return l
}

// agg returns one chunk's aggregation slot, a recycled one (its slices keep
// their capacity) at the chunk's first touch.
func (c *Cluster) agg(r *request, chunk, server int, bytes int64) *aggState {
	l := c.link(r, chunk)
	if a := *l; a != nil {
		return a
	}
	a := recycle.Take(&c.freeAggs)
	if c.cfg.Async && a.applied == nil {
		a.applied = make([]bool, c.cfg.Workers)
	}
	a.c, a.iter, a.chunk, a.server, a.bytes = c, r.iter, chunk, server, bytes
	*l = a
	c.live++
	return a
}

// send puts one chunk of r on the wire.
func (c *Cluster) send(r *request, src, dst int, bytes int64, prio, chunk int) {
	t := c.fab.NewTransfer()
	t.Src, t.Dst, t.Bytes, t.Prio, t.Sink, t.Tag = src, dst, bytes, prio, r, chunk
	c.fab.Send(t)
}

// Push transmits worker's gradient partition of tensor tid (see TensorID) to
// its server (or servers, under big-array sharding) for iteration iter, and
// tells rcv when the push is acked.
func (c *Cluster) Push(iter, worker, tid int, sub tensor.Sub, rcv Receiver) {
	r, home, n := c.begin(reqPush, iter, worker, tid, sub, rcv)
	for i := 0; i < n; i++ {
		server, bytes := c.chunk(home, sub.Bytes, n, i)
		c.send(r, worker, c.serverNode(server), bytes, sub.Parent.Layer, i)
	}
}

// Pull requests the aggregated parameter partition for worker and tells rcv
// of its delivery and ack. Each chunk's transfer starts as soon as it is
// ready on its server: after all pushes in sync mode, after this worker's
// own push in async mode.
func (c *Cluster) Pull(iter, worker, tid int, sub tensor.Sub, rcv Receiver) {
	c.await(reqPull, iter, worker, tid, sub, rcv)
}

// WhenPullable tells rcv as soon as the partition is ready to be pulled by
// worker for iteration iter: after aggregation and update in sync mode,
// after the worker's own push is applied in async mode. If already ready,
// rcv is told inline. This lets a scheduler delay issuing the pull (and
// holding credit) until the pull can actually proceed.
func (c *Cluster) WhenPullable(iter, worker, tid int, sub tensor.Sub, rcv Receiver) {
	c.await(reqWatch, iter, worker, tid, sub, rcv)
}

// await opens a pull or a watch: each chunk is served at once if worker can
// already pull it, and parked on its aggregation slot otherwise.
func (c *Cluster) await(kind, iter, worker, tid int, sub tensor.Sub, rcv Receiver) {
	r, home, n := c.begin(kind, iter, worker, tid, sub, rcv)
	for i := 0; i < n; i++ {
		server, bytes := c.chunk(home, sub.Bytes, n, i)
		switch a := c.agg(r, i, server, bytes); {
		case c.ready(a, worker):
			c.serve(a, r)
		case kind == reqPull:
			a.waiting = append(a.waiting, r)
		default:
			a.watchers = append(a.watchers, r)
		}
	}
}

// serve gives r the chunk it waited for: a pull's transfer starts; a watch
// counts it and, at the last, tells the receiver.
func (c *Cluster) serve(a *aggState, r *request) {
	if r.kind == reqPull {
		c.send(r, c.serverNode(a.server), r.worker, a.bytes, 0, a.chunk)
	} else if r.left--; r.left == 0 {
		rcv, part := r.rcv, r.part
		c.freeReqs.Put(r)
		rcv.Pullable(part)
	}
}

func (c *Cluster) ready(a *aggState, worker int) bool {
	if c.cfg.Async {
		return a.applied[worker]
	}
	return a.updated
}

// Fire implements sim.Handler: the server-side update has been applied.
func (a *aggState) Fire(worker int) {
	if worker >= 0 {
		a.applied[worker] = true
	} else {
		a.updated = true
	}
	// Parked pulls start before watchers hear, as they always have.
	a.waiting = a.c.wake(a, a.waiting)
	a.watchers = a.c.wake(a, a.watchers)
}

// wake serves the parked requests whose worker can now pull; returns the rest.
func (c *Cluster) wake(a *aggState, parked []*request) []*request {
	kept := parked[:0]
	for _, r := range parked {
		if c.ready(a, r.worker) {
			c.serve(a, r)
		} else {
			kept = append(kept, r)
		}
	}
	clear(parked[len(kept):])
	return kept
}

// Delivered implements network.Sink. A pushed chunk is aggregated and, once
// every push it waits for is in, updated at the optimizer's cost; a pulled
// chunk counts toward the partition's delivery and its slot's end.
func (r *request) Delivered(t *network.Transfer) {
	c := r.c
	if r.kind == reqPush {
		server := t.Dst - c.cfg.Workers
		c.recvBytes[server] += t.Bytes
		a := c.agg(r, t.Tag, server, t.Bytes)
		updateDelay := c.updateSecPerByte * float64(t.Bytes)
		if c.cfg.Async {
			c.eng.After(updateDelay, a, r.worker) // each push is applied independently
		} else if a.pushesApplied++; a.pushesApplied == c.cfg.Workers {
			c.eng.After(updateDelay, a, -1)
		}
		return
	}
	if r.left--; r.left == 0 {
		r.rcv.PullDelivered(r.part)
	}
	l := c.link(r, t.Tag)
	a := *l
	a.pullsDelivered++
	if a.pullsDelivered == c.cfg.Workers && len(a.waiting) == 0 && len(a.watchers) == 0 {
		*l, c.live = a.next, c.live-1 // all workers served; reclaim
		clear(a.applied)
		*a = aggState{applied: a.applied, waiting: a.waiting, watchers: a.watchers}
		c.freeAggs.Put(a)
	}
}

// Acked implements network.Sink: the request ends with its last chunk's ack.
func (r *request) Acked(*network.Transfer) {
	if r.acks--; r.acks > 0 {
		return
	}
	kind, rcv, part := r.kind, r.rcv, r.part
	r.c.freeReqs.Put(r)
	if kind == reqPush {
		rcv.PushAcked(part)
	} else {
		rcv.PullAcked(part)
	}
}

// Outstanding returns the number of live aggregation entries; useful for
// leak checks in tests.
func (c *Cluster) Outstanding() int { return c.live }

// LoadImbalance returns max/mean of per-server received bytes; 1.0 is
// perfectly balanced. Returns 0 before any traffic.
func (c *Cluster) LoadImbalance() float64 {
	var sum, max int64
	for _, b := range c.recvBytes {
		sum += b
		if b > max {
			max = b
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(c.recvBytes))
	return float64(max) / mean
}
