package core

// Tensor fusion: the inverse knob of partitioning. Partitioning cuts large
// tensors so high-priority data preempts quickly; fusion buckets tensors
// *smaller* than the per-message overhead threshold θ into one CommTask,
// so the long tail of tiny layers (biases, batch-norm parameters,
// attention scalars) does not pay one full message overhead each (§2.2's θ
// analysis — the same economics a netps connection exploits by writing
// queued frames in one writev, applied here at the scheduling layer where
// it also collapses per-task bookkeeping and per-key transport state).
//
// A Fuser sits between the framework plugin and a scheduler: Add replaces
// the Enqueue+NotifyReady pair. Tensors at or above the threshold pass
// straight through; smaller ones accumulate in a bucket that is flushed as
// one fused CommTask when it reaches θ bytes or when the caller flushes
// explicitly at a pass boundary. The fused task's priority
// is the *minimum* (most urgent) of its members — fusion may delay an
// urgent small tensor by at most one bucket, never demote it — and when
// the fused task resolves it is unfused: every member's OnFinished fires
// exactly once with the fused outcome.
//
// Cross-worker consistency: transports key on tensor identity, so all
// workers must fuse identical member sets. Membership is deterministic
// when (a) tasks are Added in the same order on every worker — true for
// backward passes, which emit gradients in reverse layer order — and (b)
// flushes happen at deterministic points — the θ size limit and explicit
// pass-boundary Flush calls are the only triggers, so there is no
// wall-clock flush that could diverge membership. The same determinism is
// what lets a live ring's peers name a task by its position in the pass:
// every peer emits the same sequence of plain and fused tasks.

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"bytescheduler/internal/tensor"
)

// TaskSink accepts CommTasks: the downstream a Fuser feeds.
// *AsyncScheduler satisfies it.
type TaskSink interface {
	Enqueue(t *Task) error
	NotifyReady(t *Task) error
}

// Fused is one fusion bucket turned CommTask payload: the members in Add
// order and their byte offsets within the fused buffer. FuserConfig.Start
// receives it once, when the bucket is emitted.
type Fused struct {
	// Tensor is the synthetic fused tensor: Layer is the minimum member
	// layer (so LayerPriority gives the bucket its most urgent member's
	// priority), Bytes the member total, Name the content-derived
	// signature (identical on every worker that fused the same members).
	Tensor  tensor.Tensor
	members []*Task
	offsets []int64
}

// Members returns the fused member tasks in Add order.
func (f *Fused) Members() []*Task { return f.members }

// Offsets returns each member's starting byte within the fused buffer;
// member i covers [Offsets()[i], Offsets()[i]+Members()[i].Tensor.Bytes).
func (f *Fused) Offsets() []int64 { return f.offsets }

// FuserConfig configures a Fuser.
type FuserConfig struct {
	// Theta is the fusion threshold in bytes: tensors strictly smaller
	// are bucketed, larger ones pass through untouched, and a bucket
	// flushes once it holds Theta bytes — members are each under Theta, so
	// buckets land in [Theta, 2Theta). <= 0 disables fusion (every task
	// passes through).
	Theta int64
	// Start builds each fused task's Starter from the bucket's
	// composition, once per emitted bucket: the Starter transmits the
	// partition [sub.Offset, sub.Offset+sub.Bytes) of the fused buffer
	// whose layout f.Offsets describes, under the same contract as any
	// Task's. Required when Theta > 0.
	Start func(f *Fused) Starter
}

// validate reports configuration errors.
func (c FuserConfig) validate() error {
	if c.Theta <= 0 {
		return nil // fusion disabled; nothing else is consulted
	}
	if c.Start == nil {
		return errors.New("core: fuser needs a Start function when Theta > 0")
	}
	return nil
}

// FuserStats are fusion counters, snapshotted by Fuser.Stats.
type FuserStats struct {
	// Passthrough counts tasks at or above Theta forwarded unfused.
	Passthrough uint64
	// FusedTasks counts fused CommTasks emitted.
	FusedTasks uint64
	// FusedMembers counts member tasks absorbed into fused CommTasks.
	FusedMembers uint64
	// SizeFlushes / ExplicitFlushes break down what triggered each bucket
	// flush (singleton buckets flushed through their own Start count here
	// too).
	SizeFlushes, ExplicitFlushes uint64
}

// Fuser buckets sub-threshold CommTasks into fused CommTasks. Safe for
// concurrent use; Close flushes the remainder.
type Fuser struct {
	cfg  FuserConfig
	sink TaskSink

	mu      sync.Mutex
	pending []*Task
	bytes   int64
	closed  bool
	stats   FuserStats
}

// NewFuser returns a Fuser feeding sink. It returns an error on an
// invalid configuration or a nil sink.
func NewFuser(cfg FuserConfig, sink TaskSink) (*Fuser, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if sink == nil {
		return nil, errors.New("core: fuser needs a sink")
	}
	return &Fuser{cfg: cfg, sink: sink}, nil
}

// Add submits one ready CommTask: the fusion-aware replacement for the
// Enqueue+NotifyReady pair (call it when the tensor is computed). Tasks at
// or above Theta forward immediately; smaller ones are bucketed and reach
// the sink when their bucket flushes. Member tasks must not also be
// enqueued directly — the fused task is what the scheduler sees — but
// their OnFinished and Err work exactly as if they had been.
func (f *Fuser) Add(t *Task) error {
	if t == nil {
		return errors.New("core: nil task")
	}
	if f.cfg.Theta <= 0 || t.Tensor.Bytes >= f.cfg.Theta {
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return errors.New("core: fuser closed")
		}
		f.stats.Passthrough++
		f.mu.Unlock()
		return f.forward(t)
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return errors.New("core: fuser closed")
	}
	f.pending = append(f.pending, t)
	f.bytes += t.Tensor.Bytes
	if f.bytes >= f.cfg.Theta {
		batch := f.takeLocked()
		f.stats.SizeFlushes++
		f.mu.Unlock()
		return f.emit(batch)
	}
	f.mu.Unlock()
	return nil
}

// Flush synchronously emits whatever is bucketed — the pass-boundary hook:
// the live runner calls it after the backward pass's last gradient, so a
// partial tail bucket never waits on the next iteration.
func (f *Fuser) Flush() error {
	f.mu.Lock()
	batch := f.takeLocked()
	if len(batch) > 0 {
		f.stats.ExplicitFlushes++
	}
	f.mu.Unlock()
	return f.emit(batch)
}

// Close flushes the remainder and fails all subsequent Adds.
func (f *Fuser) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	batch := f.takeLocked()
	if len(batch) > 0 {
		f.stats.ExplicitFlushes++
	}
	f.mu.Unlock()
	return f.emit(batch)
}

// Stats snapshots the fusion counters.
func (f *Fuser) Stats() FuserStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// takeLocked detaches the bucket. Caller holds f.mu.
func (f *Fuser) takeLocked() []*Task {
	batch := f.pending
	f.pending = nil
	f.bytes = 0
	return batch
}

// forward submits one unfused task to the sink.
func (f *Fuser) forward(t *Task) error {
	if err := f.sink.Enqueue(t); err != nil {
		return err
	}
	return f.sink.NotifyReady(t)
}

// emit turns one detached bucket into a fused CommTask and submits it. A
// singleton bucket skips the fused wrapper entirely — one member gains
// nothing from fusion, and its own Start keeps the transport key it would
// have had unfused.
func (f *Fuser) emit(batch []*Task) error {
	switch len(batch) {
	case 0:
		return nil
	case 1:
		return f.forward(batch[0])
	}
	fused := &Fused{
		members: batch,
		offsets: make([]int64, len(batch)),
	}
	minLayer := batch[0].Tensor.Layer
	var total int64
	var sig strings.Builder
	sig.WriteString("fused(")
	for i, m := range batch {
		fused.offsets[i] = total
		total += m.Tensor.Bytes
		if m.Tensor.Layer < minLayer {
			minLayer = m.Tensor.Layer
		}
		if i > 0 {
			sig.WriteByte('+')
		}
		fmt.Fprintf(&sig, "L%02d/%s", m.Tensor.Layer, m.Tensor.Name)
	}
	sig.WriteByte(')')
	fused.Tensor = tensor.Tensor{Layer: minLayer, Name: sig.String(), Bytes: total}

	ft := &Task{Tensor: fused.Tensor, Starter: f.cfg.Start(fused)}
	// Unfuse: when every fused partition has resolved, each member
	// resolves with the fused outcome, exactly once.
	ft.OnFinished = func() {
		err := ft.Err()
		for _, m := range fused.members {
			m.err = err
			if m.OnFinished != nil {
				m.OnFinished()
			}
		}
	}
	f.mu.Lock()
	f.stats.FusedTasks++
	f.stats.FusedMembers += uint64(len(batch))
	f.mu.Unlock()
	return f.forward(ft)
}
