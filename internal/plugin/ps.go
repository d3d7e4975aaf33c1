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
	pushes := make([]*core.Task, len(tensors))
	// The engine gate opens when every partition of every tensor in the
	// layer has been pulled back. Count partitions up front so a fast
	// first delivery cannot fire the gate early.
	remaining := 0
	for i, tt := range tensors {
		pushes[i] = &core.Task{
			Tensor: tt,
			Start: func(sub tensor.Sub, subDone func()) {
				p.cluster.Push(iter, worker, sub, subDone)
			},
		}
		upSched.Enqueue(pushes[i])
		remaining += len(pushes[i].Subs())
	}
	state := &layerState{remaining: remaining, done: done}

	for i, tt := range tensors {
		// One pull CommTask per partition: each becomes ready
		// independently, when its own aggregation completes.
		for _, sub := range pushes[i].Subs() {
			sub := sub
			pullTask := &core.Task{
				// The pull task's payload is exactly one partition; the
				// scheduler will not re-split it (Bytes <= unit), and
				// priority still derives from the layer.
				Tensor: tensor.Tensor{Layer: tt.Layer, Name: tt.Name + "/pull", Bytes: sub.Bytes},
				Start: func(_ tensor.Sub, subDone func()) {
					p.cluster.Pull(iter, worker, sub,
						func() { state.delivered() },
						subDone)
				},
			}
			downSched.Enqueue(pullTask)
			p.cluster.WhenPullable(iter, worker, sub, func() {
				downSched.NotifyReady(pullTask)
			})
		}
		upSched.NotifyReady(pushes[i])
	}
}

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
