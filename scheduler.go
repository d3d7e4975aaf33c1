package bytescheduler

import (
	"bytescheduler/internal/core"
	"bytescheduler/internal/tensor"
)

// SubTask is one partition of a scheduled tensor: the byte range
// [Offset, Offset+Bytes) of the parent, partition Index of Count.
type SubTask struct {
	// Layer and TensorName identify the parent tensor.
	Layer      int
	TensorName string
	// Index / Count locate the partition within the parent.
	Index, Count int
	// Offset and Bytes delimit the partition within the parent buffer.
	Offset, Bytes int64
}

// CommTask is the unified communication abstraction: one tensor to be
// synchronized (pushed+pulled, or all-reduced — the Start function decides).
type CommTask struct {
	// Layer is the 0-based DNN layer index from the input; it determines
	// priority under the ByteScheduler policy.
	Layer int
	// Name identifies the tensor within the layer.
	Name string
	// Bytes is the tensor size.
	Bytes int64
	// Start launches one partition on the underlying communication stack.
	// It may block; it runs on its own goroutine. done must be called
	// exactly once when the partition's communication has completed.
	// Exactly one of Start and StartErr must be set.
	Start func(sub SubTask, done func())
	// StartErr is the failure-aware variant of Start: the substrate reports
	// the partition outcome through done(err). A non-nil error returns the
	// partition's credit and requeues it, up to the policy's retry budget
	// (WithMaxRetries); after the budget is exhausted the task completes
	// with Err() set. Use this with fallible transports such as netps.
	StartErr func(sub SubTask, done func(error))
	// OnFinished, if non-nil, fires once when every partition has
	// completed (successfully or after exhausting retries; check Err).
	OnFinished func()
	// OnSubStart, if non-nil, fires as each partition is released to Start
	// — on the partition's goroutine, without the scheduler lock. Use it
	// (with OnSubFinish) to bracket per-partition spans on an external
	// tracer or to log release order.
	OnSubStart func(sub SubTask)
	// OnSubFinish, if non-nil, fires when a partition's done callback runs,
	// with the error the substrate reported (nil for Start-based tasks and
	// successes). It fires once per attempt: a retried partition reports
	// each failed attempt before its eventual outcome.
	OnSubFinish func(sub SubTask, err error)

	inner *core.Task
}

// Err returns the first partition failure that exhausted the retry budget,
// or nil. Meaningful once OnFinished has fired (or after Shutdown).
func (t *CommTask) Err() error {
	if t.inner == nil {
		return nil
	}
	return t.inner.Err()
}

// Scheduler is the live, goroutine-safe ByteScheduler Core for embedding in
// real communication stacks: wrap each tensor as a CommTask, Enqueue it
// when the framework posts the communication operation, and NotifyReady
// when the tensor's data is available. The scheduler partitions tasks and
// releases partitions to Start in priority order under credit-based
// preemption.
type Scheduler struct {
	async *core.AsyncScheduler
}

// NewScheduler returns a live scheduler for the given policy.
func NewScheduler(p Policy) *Scheduler {
	return &Scheduler{async: core.NewAsync(p.p)}
}

// Enqueue registers a CommTask (the framework has posted the communication
// operation; the tensor may not be computed yet).
func (s *Scheduler) Enqueue(t *CommTask) error {
	if t.inner != nil {
		return errEnqueuedTwice(t.Name)
	}
	inner := &core.Task{
		Tensor:     tensor.Tensor{Layer: t.Layer, Name: t.Name, Bytes: t.Bytes},
		OnFinished: t.OnFinished,
	}
	// Adapt Start to the StartErr form once; a task with neither is left
	// for the core to reject.
	start := t.StartErr
	if f := t.Start; f != nil {
		if start != nil {
			return taskError{t.Name, "has both Start and StartErr"}
		}
		start = func(st SubTask, done func(error)) { f(st, func() { done(nil) }) }
	}
	if start != nil {
		onStart, onFinish := t.OnSubStart, t.OnSubFinish
		inner.StartErr = func(sub tensor.Sub, done func(error)) {
			st := subTask(sub)
			if onStart != nil {
				onStart(st)
			}
			if onFinish == nil {
				start(st, done)
				return
			}
			start(st, func(err error) {
				onFinish(st, err)
				done(err)
			})
		}
	}
	if err := s.async.Enqueue(inner); err != nil {
		return err
	}
	t.inner = inner
	return nil
}

func subTask(sub tensor.Sub) SubTask {
	return SubTask{
		Layer:      sub.Parent.Layer,
		TensorName: sub.Parent.Name,
		Index:      sub.Index,
		Count:      sub.Count,
		Offset:     sub.Offset,
		Bytes:      sub.Bytes,
	}
}

// NotifyReady marks the task's tensor as computed and eligible for
// transmission.
func (s *Scheduler) NotifyReady(t *CommTask) error {
	if t.inner == nil {
		return errNotEnqueued(t.Name)
	}
	return s.async.NotifyReady(t.inner)
}

// Instrument attaches a metrics registry: the scheduler publishes credit
// occupancy, queue depth, in-flight partitions/bytes gauges and
// start/finish/retry/failure/preemption counters under core_* names, plus a
// core_partition_seconds latency histogram. A nil Metrics (or nil receiver
// argument) detaches. Safe to call between turns of work.
func (s *Scheduler) Instrument(m *Metrics) { s.async.Instrument(m.registry()) }

// SetTrace attaches a wall-clock trace recorder: every partition becomes a
// span named "tensor[i/n]" on lane "core/L<layer>", start-to-done. A nil
// recorder detaches.
func (s *Scheduler) SetTrace(t *TraceRecorder) { s.async.SetTracer(t.wallTracer()) }

// SetFlushHook installs fn to run at the end of every scheduling pass that
// released at least one partition — the scheduler's signal that no further
// release is imminent (queue drained or credit blocked). The live PS
// transport does not need it: its client writes whatever partitions queued
// behind a write in the next single writev, so nothing waits for a flush.
// fn runs under the scheduler's lock: it must not call back into the
// scheduler and must not block on I/O. Passing nil detaches.
func (s *Scheduler) SetFlushHook(fn func()) { s.async.SetFlushHook(fn) }

// Drained reports whether nothing is queued or in flight.
func (s *Scheduler) Drained() bool { return s.async.Drained() }

// Shutdown stops accepting work and waits for in-flight transmissions.
func (s *Scheduler) Shutdown() { s.async.Shutdown() }

// SchedulerStats are live scheduler counters.
type SchedulerStats struct {
	// TasksEnqueued, SubsStarted, SubsFinished, Preemptions mirror the
	// core counters; see the package documentation.
	TasksEnqueued, SubsStarted, SubsFinished, Preemptions uint64
	// Retries counts partitions requeued after a reported failure;
	// Failures counts partitions that exhausted the retry budget. At
	// quiescence SubsStarted == SubsFinished + Failures + Retries.
	Retries, Failures uint64
}

// Stats snapshots the counters.
func (s *Scheduler) Stats() SchedulerStats {
	st := s.async.Stats()
	return SchedulerStats{
		TasksEnqueued: st.TasksEnqueued,
		SubsStarted:   st.SubsStarted,
		SubsFinished:  st.SubsFinished,
		Preemptions:   st.Preemptions,
		Retries:       st.Retries,
		Failures:      st.Failures,
	}
}

type taskError struct {
	name string
	what string
}

func (e taskError) Error() string {
	return "bytescheduler: task " + e.name + " " + e.what
}

func errEnqueuedTwice(name string) error { return taskError{name, "enqueued twice"} }
func errNotEnqueued(name string) error   { return taskError{name, "not enqueued"} }
