package plugin

import (
	"bytescheduler/internal/core"
	"bytescheduler/internal/model"
	"bytescheduler/internal/ps"
	"bytescheduler/internal/tensor"
)

// PSPlugin binds framework engines to the parameter-server substrate. Each
// worker runs independent Core instances (the paper, §5: "For PS that
// supports asynchronous push and pull, all Cores schedule the order
// independently").
//
// Push and pull are separate CommTasks, as in the DAG of Figure 1 and in
// the MXNet KVStore plugin: a push of layer i competes with other pushes
// for upload bandwidth and a pull competes with other pulls for download
// bandwidth (Theorem 1 prioritizes the two resources independently). A
// partition's pull becomes ready as soon as that partition is aggregated on
// the server — Theorem 1's condition 3: "if the push flow in a layer is
// only partially done before being preempted, the done part can be pulled."
//
// The engine's per-layer gate opens when every partition of the layer has
// been pulled back; scheduler credit returns on transport-level
// acknowledgements.
type PSPlugin struct {
	cluster *ps.Cluster
	layers  []model.Layer
	up      []*core.Scheduler // per worker, schedules pushes
	down    []*core.Scheduler // per worker, schedules pulls
	ids     [][]int           // the cluster's id of each layer's tensors
}

// NewPS creates the plugin. Each worker gets an upload and a download
// scheduler built from policy (the credit applies per direction, matching
// how the send window fills each side of a duplex link).
func NewPS(cluster *ps.Cluster, m *model.Model, policy core.Policy) *PSPlugin {
	workers := cluster.Config().Workers
	p := &PSPlugin{
		cluster: cluster,
		layers:  m.Layers,
		up:      make([]*core.Scheduler, workers),
		down:    make([]*core.Scheduler, workers),
		ids:     make([][]int, len(m.Layers)),
	}
	for l, layer := range m.Layers {
		for _, tt := range layer.Tensors {
			p.ids[l] = append(p.ids[l], cluster.TensorID(tt))
		}
	}
	// Pull tasks arrive pre-partitioned (one CommTask per partition, each
	// becoming ready when its aggregation completes), so the download
	// scheduler must not split them again.
	downPolicy := policy
	downPolicy.PartitionUnit = 0
	downPolicy.PartitionFn = nil
	for w := 0; w < workers; w++ {
		p.up[w] = core.New(policy)
		p.down[w] = core.New(downPolicy)
	}
	return p
}

// SetParams adjusts partition and credit sizes live on every worker's
// Cores, for runtime auto-tuning. Layers announced from now on use the new
// partition size; a per-layer PartitionFn, if any, is cleared.
func (p *PSPlugin) SetParams(partition, credit int64) {
	for w := range p.up {
		p.up[w].SetPartitionUnit(partition)
		p.up[w].SetCredit(credit)
		// The download scheduler receives pre-partitioned tasks; only its
		// credit changes.
		p.down[w].SetCredit(credit)
	}
}

// UpScheduler returns worker w's push Core, for stats inspection.
func (p *PSPlugin) UpScheduler(w int) *core.Scheduler { return p.up[w] }

// DownScheduler returns worker w's pull Core, for stats inspection.
func (p *PSPlugin) DownScheduler(w int) *core.Scheduler { return p.down[w] }

// GradientReady implements engine.CommHook: it schedules the layer's pushes
// now and arms the pulls to become ready as partitions aggregate.
func (p *PSPlugin) GradientReady(worker, layer, iter int, done func()) {
	upSched, downSched := p.up[worker], p.down[worker]
	tensors := p.layers[layer].Tensors

	// One push CommTask per tensor. Enqueue them all first: the Core
	// partitions each tensor, and its partitions are both the gate count
	// and the pull tasks — partitioning is the Core's decision alone.
	// The engine gate opens when every partition of every tensor in the
	// layer has been pulled back. Count partitions up front so a fast
	// first delivery cannot fire the gate early.
	gate := &layerState{done: done}
	syncs := make([]tensorSync, len(tensors))
	for i, tt := range tensors {
		ts := &syncs[i]
		ts.p, ts.worker, ts.iter, ts.id, ts.gate = p, worker, iter, p.ids[layer][i], gate
		ts.push = core.Task{Tensor: tt, Starter: ts}
		upSched.Enqueue(&ts.push)
		gate.remaining += len(ts.push.Subs())
	}
	for i := range syncs {
		ts := &syncs[i]
		// One pull CommTask per partition: each becomes ready
		// independently, when its own aggregation completes.
		ts.parts = make([]partSync, len(ts.push.Subs()))
		for j, sub := range ts.push.Subs() {
			part := &ts.parts[j]
			part.ts, part.index = ts, j
			// The pull task's payload is exactly one partition; the
			// scheduler will not re-split it (Bytes <= unit), and
			// priority still derives from the layer.
			part.pull = core.Task{
				Tensor:  tensor.Tensor{Layer: sub.Parent.Layer, Name: sub.Parent.Name, Bytes: sub.Bytes},
				Starter: part,
			}
			downSched.Enqueue(&part.pull)
			p.cluster.WhenPullable(iter, worker, ts.id, sub, ts)
		}
		upSched.NotifyReady(&ts.push)
	}
}

// tensorSync is one tensor's synchronization on one worker in one iteration:
// the push task's Starter and every partition's ps.Receiver, so a partition's
// trip through both Cores and the cluster builds no closure.
type tensorSync struct {
	p                *PSPlugin
	worker, iter, id int
	gate             *layerState
	push             core.Task
	parts            []partSync // by Sub.Index
}

// partSync is one partition: its pull task (whose Starter it is) and the
// handles both Cores are waiting on.
type partSync struct {
	ts           *tensorSync
	index        int
	pull         core.Task
	pushH, pullH *core.Handle
}

// StartSub implements core.Starter for the push task.
func (ts *tensorSync) StartSub(h *core.Handle) {
	sub := h.Sub()
	ts.parts[sub.Index].pushH = h
	ts.p.cluster.Push(ts.iter, ts.worker, ts.id, sub, ts)
}

// StartSub implements core.Starter for one partition's pull task.
func (part *partSync) StartSub(h *core.Handle) {
	ts := part.ts
	part.pullH = h
	ts.p.cluster.Pull(ts.iter, ts.worker, ts.id, ts.push.Subs()[part.index], ts)
}

// PushAcked implements ps.Receiver: the push's credit returns.
func (ts *tensorSync) PushAcked(part int) { ts.parts[part].pushH.Done(nil) }

// Pullable implements ps.Receiver: the partition's pull joins the queue.
func (ts *tensorSync) Pullable(part int) { ts.p.down[ts.worker].NotifyReady(&ts.parts[part].pull) }

// PullDelivered implements ps.Receiver.
func (ts *tensorSync) PullDelivered(int) { ts.gate.delivered() }

// PullAcked implements ps.Receiver: the pull's credit returns.
func (ts *tensorSync) PullAcked(part int) { ts.parts[part].pullH.Done(nil) }

// layerState tracks outstanding partition deliveries for one (worker,
// layer, iteration) and opens the engine gate when all have arrived.
type layerState struct {
	remaining int
	done      func()
}

func (s *layerState) delivered() {
	s.remaining--
	if s.remaining < 0 {
		panic("plugin: layer delivery over-counted")
	}
	if s.remaining == 0 {
		s.done()
	}
}
