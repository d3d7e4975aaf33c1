package plugin

import (
	"bytescheduler/internal/core"
	"bytescheduler/internal/model"
	"bytescheduler/internal/ps"
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
	parts   partitions
	up      []*core.Scheduler // per worker, schedules pushes
	down    []*core.Scheduler // per worker, schedules pulls
	ids     [][]int           // the cluster's id of each layer's tensors
	last    [][]*layerState   // by worker and layer: the latest record
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
		last:    make([][]*layerState, workers),
	}
	for l, layer := range m.Layers {
		for _, tt := range layer.Tensors {
			p.ids[l] = append(p.ids[l], cluster.TensorID(tt))
		}
	}
	for w := 0; w < workers; w++ {
		p.up[w] = core.New(policy)
		p.down[w] = core.New(policy)
		p.last[w] = make([]*layerState, len(m.Layers))
	}
	return p
}

// Reset returns the plugin to the state NewPS leaves it in, under policy:
// every worker's Cores are reset, and each (worker, layer)'s record, its
// handle slabs and the shared partitions are kept for the next run, which
// re-cuts the partitions in place if its unit is another. A
// record with partitions still unacked is dropped, so a reset mid-run
// reuses nothing a stale callback could reach; the cluster must have been
// reset too.
func (p *PSPlugin) Reset(policy core.Policy) {
	p.parts.reset = true
	for w := range p.up {
		p.up[w].Reset(policy)
		p.down[w].Reset(policy)
		for l, gate := range p.last[w] {
			if gate == nil {
				continue
			}
			if gate.unacked != 0 || gate.remaining != 0 {
				p.last[w][l] = nil
			} else {
				gate.done = nil
			}
		}
	}
}

// SetParams adjusts partition and credit sizes live on every worker's
// Cores, for runtime auto-tuning. Layers announced from now on use the new
// partition size; a per-layer PartitionFn, if any, is cleared.
func (p *PSPlugin) SetParams(partition, credit int64) {
	for w := range p.up {
		p.up[w].SetPartitionUnit(partition)
		p.up[w].SetCredit(credit)
		p.down[w].SetCredit(credit) // pulls reuse their push's partitions
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

	// The layer's last record is reused once all of its partitions are
	// acked, so both Cores have resolved its tasks; while one is still in
	// flight (iterations overlap), the layer gets a fresh record.
	gate := p.last[worker][layer]
	if gate == nil || gate.unacked > 0 {
		gate = &layerState{syncs: make([]tensorSync, len(tensors))}
		for i, tt := range tensors {
			ts := &gate.syncs[i]
			ts.p, ts.worker, ts.id, ts.gate = p, worker, p.ids[layer][i], gate
			ts.push = core.Task{Tensor: tt, Starter: ts}
			ts.pull = core.Task{Tensor: tt, Starter: (*pullStarter)(ts)}
		}
		p.last[worker][layer] = gate
	}
	gate.done = done

	// One push and one pull CommTask per tensor over the same partitions,
	// which are both the gate count and the pull's units of readiness. The
	// engine gate opens when every partition of every tensor in the layer
	// has been pulled back. Count partitions up front so a fast first
	// delivery cannot fire the gate early.
	for i, tt := range tensors {
		subs := p.parts.of(upSched, tt)
		ts := &gate.syncs[i]
		ts.iter = iter
		if cap(ts.handles) < len(subs) {
			ts.handles = make([]partHandles, len(subs))
		}
		ts.handles = ts.handles[:len(subs)]
		upSched.EnqueueSubs(&ts.push, subs)
		downSched.EnqueueSubs(&ts.pull, subs)
		gate.remaining += len(subs)
		gate.unacked += 2 * len(subs)
	}
	for i := range gate.syncs {
		ts := &gate.syncs[i]
		// Each partition's pull becomes ready on its own, when its
		// aggregation completes.
		for _, sub := range ts.push.Subs() {
			p.cluster.WhenPullable(iter, worker, ts.id, sub, ts)
		}
		upSched.NotifyReady(&ts.push)
	}
}

// tensorSync is one tensor's synchronization on one worker in one iteration
// (and, reused, in later ones): both tasks' Starter and every partition's
// ps.Receiver, so a partition's trip through both Cores and the cluster
// builds no closure.
type tensorSync struct {
	p                *PSPlugin
	worker, iter, id int
	gate             *layerState
	push, pull       core.Task
	handles          []partHandles // by Sub.Index
}

// partHandles are the handles both Cores wait on for one partition.
type partHandles struct{ push, pull *core.Handle }

// StartSub implements core.Starter for the push task.
func (ts *tensorSync) StartSub(h *core.Handle) {
	sub := h.Sub()
	ts.handles[sub.Index].push = h
	ts.p.cluster.Push(ts.iter, ts.worker, ts.id, sub, ts)
}

// pullStarter is a tensorSync in its role as the pull task's Starter.
type pullStarter tensorSync

// StartSub implements core.Starter for the pull task.
func (pl *pullStarter) StartSub(h *core.Handle) {
	ts, sub := (*tensorSync)(pl), h.Sub()
	ts.handles[sub.Index].pull = h
	ts.p.cluster.Pull(ts.iter, ts.worker, ts.id, sub, ts)
}

// PushAcked implements ps.Receiver: the push's credit returns.
func (ts *tensorSync) PushAcked(part int) {
	ts.handles[part].push.Done(nil)
	ts.gate.unacked--
}

// Pullable implements ps.Receiver: the partition's pull joins the queue.
func (ts *tensorSync) Pullable(part int) { ts.p.down[ts.worker].NotifySubReady(&ts.pull, part) }

// PullDelivered implements ps.Receiver.
func (ts *tensorSync) PullDelivered(int) { ts.gate.delivered() }

// PullAcked implements ps.Receiver: the pull's credit returns.
func (ts *tensorSync) PullAcked(part int) {
	ts.handles[part].pull.Done(nil)
	ts.gate.unacked--
}

// layerState is one (worker, layer, iteration)'s record: it owns the
// layer's tensorSyncs, tracks outstanding partition deliveries and opens
// the engine gate when all have arrived.
type layerState struct {
	syncs     []tensorSync // by tensor
	remaining int          // deliveries still to come
	unacked   int          // push and pull partitions not yet acked
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
