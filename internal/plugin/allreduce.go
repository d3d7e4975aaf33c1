package plugin

import (
	"bytescheduler/internal/allreduce"
	"bytescheduler/internal/core"
	"bytescheduler/internal/model"
	"bytescheduler/internal/tensor"
)

// AllReducePlugin binds framework engines to the ring all-reduce substrate.
// A single master Core instance decides the global order of collectives
// (the paper, §5: "to avoid deadlocks in all-reduce, only the master Core
// determines the order of sending tensors"), so one scheduler serves all
// workers.
//
// A layer's collective becomes ready when every worker has produced its
// gradient for that layer; the collective's completion opens the gate on
// every worker simultaneously.
type AllReducePlugin struct {
	ring    *allreduce.Ring
	layers  []model.Layer
	parts   partitions
	workers int
	sched   *core.Scheduler

	pending map[layerIter]*collectiveState
}

type layerIter struct {
	layer, iter int
}

type collectiveState struct {
	readyWorkers int
	remaining    int // partition completions outstanding
	dones        []func()
	launched     bool
}

// NewAllReduce creates the plugin with its master scheduler.
func NewAllReduce(ring *allreduce.Ring, m *model.Model, workers int, policy core.Policy) *AllReducePlugin {
	return &AllReducePlugin{
		ring:    ring,
		layers:  m.Layers,
		workers: workers,
		sched:   core.New(policy),
		pending: make(map[layerIter]*collectiveState),
	}
}

// Reset returns the plugin to the state NewAllReduce leaves it in, under
// policy: the master Core is reset and no collective is pending; the
// shared partitions are kept, to be re-cut in place at another unit. The
// ring must have been reset too.
func (p *AllReducePlugin) Reset(policy core.Policy) {
	p.sched.Reset(policy)
	clear(p.pending)
	p.parts.reset = true
}

// SetParams adjusts partition and credit sizes live on the master Core, for
// runtime auto-tuning (§5: for all-reduce the knobs change without stopping
// training).
func (p *AllReducePlugin) SetParams(partition, credit int64) {
	p.sched.SetPartitionUnit(partition)
	p.sched.SetCredit(credit)
}

// Scheduler returns the master Core, for stats inspection.
func (p *AllReducePlugin) Scheduler() *core.Scheduler { return p.sched }

// Outstanding returns the number of gates not yet opened; for leak checks.
func (p *AllReducePlugin) Outstanding() int { return len(p.pending) }

// GradientReady implements engine.CommHook.
func (p *AllReducePlugin) GradientReady(worker, layer, iter int, done func()) {
	key := layerIter{layer, iter}
	st, ok := p.pending[key]
	if !ok {
		st = &collectiveState{}
		p.pending[key] = st
	}
	st.readyWorkers++
	st.dones = append(st.dones, done)
	if st.readyWorkers < p.workers {
		return
	}
	if st.launched {
		panic("plugin: collective launched twice")
	}
	st.launched = true

	// Enqueue every tensor before any may start: the gate needs the total
	// partition count up front.
	tasks := make([]*core.Task, len(p.layers[layer].Tensors))
	for i, tt := range p.layers[layer].Tensors {
		tasks[i] = &core.Task{
			Tensor: tt,
			Start: func(sub tensor.Sub, subDone func()) {
				p.ring.Submit(&allreduce.Op{
					Bytes: sub.Bytes,
					Prio:  sub.Parent.Layer,
					OnDone: func() {
						st.remaining--
						if st.remaining < 0 {
							panic("plugin: collective over-counted")
						}
						if st.remaining == 0 {
							p.complete(key, st)
						}
					},
					OnAcked: subDone,
				})
			},
		}
		subs := p.parts.of(p.sched, tt)
		p.sched.EnqueueSubs(tasks[i], subs)
		st.remaining += len(subs)
	}
	for _, task := range tasks {
		p.sched.NotifyReady(task)
	}
}

func (p *AllReducePlugin) complete(key layerIter, st *collectiveState) {
	delete(p.pending, key)
	for _, done := range st.dones {
		done()
	}
}
