package core

import (
	"errors"
	"fmt"
	"sync"

	"bytescheduler/internal/metrics"
	"bytescheduler/internal/trace"
)

// ErrShutdown is returned by AsyncScheduler methods after Shutdown.
var ErrShutdown = errors.New("core: scheduler shut down")

// AsyncScheduler wraps Scheduler behind a mutex and a completion worker so
// it can be driven from many goroutines — the shape a live deployment needs,
// where framework engine threads post tasks and network completion handlers
// return credit concurrently.
//
// All policy semantics are identical to Scheduler: AsyncScheduler contains
// one and delegates every decision to it. Each partition's Start runs on
// its own goroutine (substrates may block); completions re-enter the
// scheduler under the mutex. The caller's Task fields are never written, so
// a Task rejected here can be fixed and enqueued again.
type AsyncScheduler struct {
	mu   sync.Mutex
	idle *sync.Cond // signaled whenever active or unresolved work shrinks
	s    *Scheduler
	down bool
	// active counts substrate goroutines whose Start call has not yet
	// returned. A plain WaitGroup cannot express the shutdown barrier: a
	// late done callback re-enters the scheduler and spawns further starts,
	// which would race Add against Wait. The counter lives under mu —
	// spawn is only ever invoked with mu held — so Shutdown's wait
	// condition is evaluated atomically with every transition.
	active int
}

// NewAsync returns a concurrent scheduler for the given policy.
func NewAsync(policy Policy) *AsyncScheduler {
	a := &AsyncScheduler{s: New(policy)}
	a.idle = sync.NewCond(&a.mu)
	// Substrate calls run outside the lock on their own goroutines; Sent
	// and Done re-enter scheduler state under the lock and wake Shutdown.
	a.s.async = a
	return a
}

// spawn starts h's launch on a goroutine of its own. mu is held by the
// caller (Enqueue, NotifyReady, Admit, Sent or Done).
func (a *AsyncScheduler) spawn(h *Handle) {
	a.active++
	if h.run == nil {
		h.run = h.runAsync
	}
	go h.run()
}

// runAsync is one substrate goroutine: the partition's launch, then the
// bookkeeping Shutdown waits on. The scheduler is read before the launch:
// once its Done has run, the handle may be reused.
func (h *Handle) runAsync() {
	a := h.s.async
	h.launch()
	a.mu.Lock()
	a.active--
	a.idle.Broadcast()
	a.mu.Unlock()
}

// Policy returns the scheduler policy.
func (a *AsyncScheduler) Policy() Policy { return a.s.policy }

// Enqueue registers a CommTask. The task's Start (or StartErr) function
// will be invoked without the scheduler lock held — substrates may block or
// call done from any goroutine. Misuse that panics on the synchronous
// Scheduler (missing Start, enqueueing a task with a partition unresolved)
// is returned as an error here: a live deployment wants a rejected task,
// not a crashed trainer. A resolved task may be enqueued again.
func (a *AsyncScheduler) Enqueue(t *Task) error {
	if err := t.validate(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.down {
		return ErrShutdown
	}
	if t.unresolved() {
		return fmt.Errorf("core: task %s enqueued twice", t.Tensor)
	}
	a.s.Enqueue(t)
	return nil
}

// NotifyReady marks a task's tensor as computed.
func (a *AsyncScheduler) NotifyReady(t *Task) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.down {
		return ErrShutdown
	}
	if !t.enqueued {
		return fmt.Errorf("core: NotifyReady before Enqueue for %s", t.Tensor)
	}
	if len(t.handles) != 0 {
		return fmt.Errorf("core: task %s ready twice", t.Tensor)
	}
	a.s.NotifyReady(t)
	return nil
}

// Admit starts partition i of t, cut at unit bytes, at once: an admission
// another Core decided, as rank 0's does for every peer of the live ring
// (the paper's §5 master Core). The first admission enqueues t. Built with
// an empty Policy, an AsyncScheduler driven by Admit alone holds no credit
// and queues nothing, and still counts and resolves every partition.
func (a *AsyncScheduler) Admit(t *Task, unit int64, i int) error {
	if err := t.validate(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.down {
		return ErrShutdown
	}
	if !t.unresolved() {
		a.s.EnqueueSubs(t, t.cut(unit))
	}
	if i < 0 || i >= len(t.subs) || len(t.handles) > i && t.handles[i].s != nil {
		return fmt.Errorf("core: partition %d of %s admitted twice or outside its %d", i, t.Tensor, len(t.subs))
	}
	a.s.NotifySubReady(t, i)
	return nil
}

// Instrument attaches a metrics registry to the underlying scheduler (see
// Scheduler.Instrument); nil detaches. Safe to call between turns of work.
func (a *AsyncScheduler) Instrument(reg *metrics.Registry) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.s.Instrument(reg)
}

// SetTracer attaches a wall-clock span tracer to the underlying scheduler
// (see Scheduler.SetTracer); nil detaches.
func (a *AsyncScheduler) SetTracer(w *trace.Wall) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.s.SetTracer(w)
}

// SetFlushHook installs a callback on the underlying scheduler (see
// Scheduler.SetFlushHook); nil detaches. The hook runs with the
// scheduler's lock held, so it must neither call back into this
// AsyncScheduler nor block on network I/O.
func (a *AsyncScheduler) SetFlushHook(fn func()) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.s.SetFlushHook(fn)
}

// SetParams atomically changes the (partition unit, credit window) pair
// live — the safe reconfiguration path the online auto-tuner drives. Both
// knobs switch under one lock acquisition, so no concurrent Enqueue can
// observe a half-applied config. The swap drains at pass boundaries by
// construction: tasks already enqueued keep the partitioning they were
// admitted under (Scheduler.SetPartitionUnit only affects future
// enqueues), and in-flight bytes keep their credit reservations
// (Scheduler.SetCredit applies the delta). Values must be non-negative;
// creditBytes 0 means unlimited. Misuse that panics on the synchronous
// Scheduler is returned as an error here, like Enqueue.
func (a *AsyncScheduler) SetParams(partitionUnit, creditBytes int64) error {
	if partitionUnit < 0 {
		return fmt.Errorf("core: negative partition unit %d", partitionUnit)
	}
	if creditBytes < 0 {
		return fmt.Errorf("core: negative credit %d", creditBytes)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.down {
		return ErrShutdown
	}
	a.s.SetPartitionUnit(partitionUnit)
	a.s.SetCredit(creditBytes)
	return nil
}

// Stats snapshots the underlying counters. The counters are atomics, so no
// lock is needed: scrapers can read mid-run without contending with the
// scheduler.
func (a *AsyncScheduler) Stats() Stats { return a.s.Stats() }

// Drained reports whether nothing is queued and every started partition
// has resolved.
func (a *AsyncScheduler) Drained() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.s.Pending() == 0 && a.s.open == 0
}

// Shutdown stops accepting work and waits until every started partition
// has resolved (its Done has run, successful or failed) and every Start
// call has returned. Unlike a bare goroutine join, it also waits out a
// Done that arrives after the substrate's Start call has already returned,
// so credit and completion accounting are quiescent when it returns.
func (a *AsyncScheduler) Shutdown() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.down = true
	for a.active > 0 || a.s.open > 0 {
		a.idle.Wait()
	}
}
