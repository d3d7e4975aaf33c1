package core

import "fmt"

// StreamReleaser is the live path's one release discipline: a TaskSink that
// turns a deterministic emission stream of ready tasks into a deterministic
// release stream, re-ordered by a priority function inside a bounded
// lookahead window, and hands each released task to the downstream sink
// (the scheduler). Enqueue passes straight through; NotifyReady is the
// emission.
//
// It exists because of coordinated transports (the segmented ring
// all-reduce): ring collectives block until every peer has issued them, so
// under a credit window all peers must admit partitions in one gap-free
// total order or they deadlock. Each peer feeds its releaser the same
// emission sequence (backward passes emit back-to-front, passes in
// iteration order, fusion buckets flushing at deterministic points —
// identical on every worker by construction). Whenever Window emitted tasks
// are waiting (or Flush drains a pass boundary) the releaser releases the
// one the priority function likes best, and — when stamping — overwrites
// its Tensor.Layer with the next value of a strictly increasing release
// counter. Because the emission sequence, the window and the priority
// function are identical across peers, every peer computes the identical
// release sequence, and the stamp is a total order all peers agree on —
// across iterations too, since the counter never resets. Reading the stamp
// as the scheduler priority (LayerPriority) makes each peer admit in that
// agreed order. A task is stamped when it is released, never earlier: a
// fused bucket carrying a member's older, smaller stamp would be admitted
// in different positions on a fast and a slow peer.
//
// Uncoordinated runs (PS, FIFO ring) do not stamp: tasks keep their real
// priority, so a later urgent tensor still preempts at the scheduler.
//
// Window trades overlap against reordering quality and is the only thing
// that differs between release modes: Window = 1 releases every task the
// moment it is emitted (pure streaming, emission order); a Window of at
// least the pass's task count holds the pass to its boundary and releases
// it best-first (the pass-end sort); anything between streams with that
// much lookahead. The releaser is not goroutine-safe; each worker owns one
// and calls it from its compute loop.
type StreamReleaser struct {
	window int
	stamp  bool
	prio   PriorityFn
	sink   TaskSink
	buf    []streamEntry // waiting tasks, in emission order
	next   int64
}

var _ TaskSink = (*StreamReleaser)(nil)

type streamEntry struct {
	task *Task
	prio int64
}

// NewStreamReleaser builds a releaser feeding sink. window is how many
// emitted tasks a release chooses among; prio orders them (lower first,
// ties broken by emission order) and sees each task's tensor as emitted,
// with its emission sequence number; stamp selects whether a released
// task's Tensor.Layer is overwritten with its agreed rank.
func NewStreamReleaser(window int, stamp bool, prio PriorityFn, sink TaskSink) (*StreamReleaser, error) {
	if window < 1 {
		return nil, fmt.Errorf("core: stream window %d, want >= 1", window)
	}
	if prio == nil || sink == nil {
		return nil, fmt.Errorf("core: stream releaser needs a prio function and a sink")
	}
	return &StreamReleaser{
		window: window,
		stamp:  stamp,
		prio:   prio,
		sink:   sink,
		buf:    make([]streamEntry, 0, window),
	}, nil
}

// Enqueue forwards the task downstream at once: partitioning does not
// depend on release order.
func (r *StreamReleaser) Enqueue(t *Task) error { return r.sink.Enqueue(t) }

// NotifyReady emits a ready task into the lookahead window. Once Window
// tasks are waiting the best of them is released, so the window never
// holds a task whose turn is already decided. A release error is returned;
// the task that failed to release has left the window either way, so a
// failed sink cannot wedge it.
func (r *StreamReleaser) NotifyReady(t *Task) error {
	emitted := uint64(r.next) + uint64(len(r.buf))
	r.buf = append(r.buf, streamEntry{task: t, prio: r.prio(t.Tensor, emitted)})
	if len(r.buf) < r.window {
		return nil
	}
	return r.releaseBest()
}

// Flush drains the window in priority order. Workers call it at the end of
// every backward pass so the lookahead never straddles the pass boundary —
// the flush point is part of the deterministic sequence all peers share.
// The first release error is returned; draining continues regardless.
func (r *StreamReleaser) Flush() error {
	var first error
	for len(r.buf) > 0 {
		if err := r.releaseBest(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Released reports how many tasks have been released so far — also the
// next agreed rank to be assigned.
func (r *StreamReleaser) Released() int64 { return r.next }

// Buffered reports how many emitted tasks are still held in the window.
func (r *StreamReleaser) Buffered() int { return len(r.buf) }

func (r *StreamReleaser) releaseBest() error {
	// buf stays in emission order, so the first of equal priorities is the
	// earliest emitted: the deterministic tie-break.
	best := 0
	for i := 1; i < len(r.buf); i++ {
		if r.buf[i].prio < r.buf[best].prio {
			best = i
		}
	}
	t := r.buf[best].task
	r.buf = append(r.buf[:best], r.buf[best+1:]...)
	if r.stamp {
		t.Tensor.Layer = int(r.next)
	}
	r.next++
	return r.sink.NotifyReady(t)
}
