// Package core implements the ByteScheduler Core: the framework-agnostic,
// communication-method-agnostic tensor scheduler of the paper (§3.2, §4,
// Algorithm 1).
//
// The Core accepts CommTasks — one per communication tensor — through a
// unified abstraction, partitions them into SubCommTasks no larger than the
// policy's partition unit, and releases them to the underlying communication
// stack in priority order under credit-based preemption: the credit is a
// byte budget of in-flight data, a sliding window that keeps the network
// send buffer full (good utilization) while bounding how much low-priority
// data can be ahead of a newly arrived high-priority tensor (timely
// preemption).
//
// The scheduler in this package is synchronous and event-driven: callers
// (framework plugins and the substrates' completion callbacks) invoke it
// inline, so it composes with the deterministic discrete-event simulator.
// AsyncScheduler wraps the same logic behind goroutine-safe channels for
// live use.
package core

import (
	"fmt"
	"time"

	"bytescheduler/internal/tensor"
	"bytescheduler/internal/trace"
)

// PriorityFn maps a tensor and its arrival sequence to a priority; lower
// values are scheduled first. A nil PriorityFn means FIFO (arrival order).
// Every partition sees its parent tensor, the task's Tensor: a PS pull
// partition made ready on its own sees the same tensor as its push.
type PriorityFn func(t tensor.Tensor, arrivalSeq uint64) int64

// LayerPriority is the paper's priority function: the index of the DNN
// layer, counted from the input. Layers near the input are needed first by
// the next iteration's forward pass, so they get the smallest values.
func LayerPriority(t tensor.Tensor, _ uint64) int64 { return int64(t.Layer) }

// Policy configures a scheduler.
type Policy struct {
	// Name identifies the policy in reports, e.g. "bytescheduler".
	Name string
	// PartitionUnit is the maximum SubCommTask size in bytes; 0 disables
	// partitioning.
	PartitionUnit int64
	// CreditBytes is the credit (sliding-window) size in bytes; 0 means
	// unlimited (no preemption control, pure priority queueing at
	// admission).
	CreditBytes int64
	// Priority orders ready SubCommTasks; nil means FIFO.
	Priority PriorityFn
	// PartitionFn, if non-nil, overrides PartitionUnit per tensor — the
	// paper's §7 "different partition and credit sizes for different
	// layers" extension. Returning 0 disables partitioning for that
	// tensor.
	PartitionFn func(t tensor.Tensor) int64
	// MaxRetries is the per-partition retry budget: how many times a
	// SubCommTask whose Start reported failure (via StartErr) is requeued
	// before it is declared permanently failed. Each failure returns the
	// partition's credit immediately, so one dead substrate cannot strand
	// the sliding window. 0 (the default) fails fast on the first error.
	MaxRetries int
}

// Validate reports configuration errors.
func (p Policy) Validate() error {
	if p.PartitionUnit < 0 {
		return fmt.Errorf("core: negative partition unit %d", p.PartitionUnit)
	}
	if p.CreditBytes < 0 {
		return fmt.Errorf("core: negative credit %d", p.CreditBytes)
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("core: negative retry budget %d", p.MaxRetries)
	}
	return nil
}

// WithMaxRetries returns a copy of the policy with the given per-partition
// retry budget.
func (p Policy) WithMaxRetries(n int) Policy {
	p.MaxRetries = n
	return p
}

// FIFO returns the baseline policy of vanilla frameworks: no partitioning,
// no admission control, transmission in arrival order.
func FIFO() Policy {
	return Policy{Name: "fifo"}
}

// P3DefaultPartition is P3's default partition size (§2.3).
const P3DefaultPartition = 160 << 10

// P3 returns the policy of Jayarajan et al.'s P3 scheduler: fixed 160 KB
// partitions, layer priority, and stop-and-wait transmission (credit equal
// to one partition, i.e. one unacknowledged tensor at a time).
func P3() Policy {
	return Policy{
		Name:          "p3",
		PartitionUnit: P3DefaultPartition,
		CreditBytes:   P3DefaultPartition,
		Priority:      LayerPriority,
	}
}

// ByteScheduler returns the paper's policy with the given partition unit
// and credit size (both in bytes).
func ByteScheduler(partitionUnit, creditBytes int64) Policy {
	return Policy{
		Name:          "bytescheduler",
		PartitionUnit: partitionUnit,
		CreditBytes:   creditBytes,
		Priority:      LayerPriority,
	}
}

// StartFn begins transmission of one SubCommTask on the underlying
// communication stack (push+pull for PS, all-reduce for collectives — the
// plugin decides). It must eventually invoke done exactly once, when the
// communication has finished and credit may be returned (notify_finish).
type StartFn func(sub tensor.Sub, done func())

// StartErrFn is the failure-aware variant of StartFn: the substrate reports
// the outcome through done. done(nil) is notify_finish; done(err) returns
// the partition's credit immediately and the scheduler requeues the
// partition until the policy's retry budget is exhausted.
type StartErrFn func(sub tensor.Sub, done func(error))

// Starter is the allocation-free form of Start: a record the substrate
// already keeps receives the partition's Handle instead of a closure built
// for it. StartSub must eventually call h.Done exactly once.
type Starter interface {
	StartSub(h *Handle)
}

// Task is a CommTask: the unified abstraction for one tensor's
// communication.
type Task struct {
	// Tensor is the communication payload.
	Tensor tensor.Tensor
	// Start launches one partition. Exactly one of Start, StartErr and
	// Starter is required; the function forms are adapters onto the Handle.
	Start StartFn
	// StartErr launches one partition and may report failure; it takes
	// precedence for substrates that can fail (e.g. real sockets).
	StartErr StartErrFn
	// Starter launches one partition given its Handle.
	Starter Starter
	// OnFinished, if non-nil, fires once when every partition of the task
	// has resolved — completed or permanently failed. Check Err to tell
	// the two apart.
	OnFinished func()
	// Meta is caller-owned metadata the scheduler never touches. The
	// Fuser's transmit callback reads it to recover per-member state (e.g.
	// the live runner's gradient buffers) from a fused task's members.
	Meta any

	subs      []tensor.Sub
	one       [1]tensor.Sub // backs subs for a task that is not split
	handles   []Handle      // by partition; made when the first one is ready
	remaining int
	enqueued  bool
	err       error // first permanent partition failure
}

// Subs returns the task's partitions; valid after Enqueue or EnqueueSubs.
func (t *Task) Subs() []tensor.Sub { return t.subs }

// Err returns the first permanent partition failure, or nil if every
// resolved partition succeeded. Stable once OnFinished has fired.
func (t *Task) Err() error { return t.err }

// validate reports a task no scheduler can start.
func (t *Task) validate() error {
	if t == nil {
		return fmt.Errorf("core: nil task")
	}
	fn, starter := t.Start != nil || t.StartErr != nil, t.Starter != nil
	switch {
	case (t.Start != nil && t.StartErr != nil) || (fn && starter):
		return fmt.Errorf("core: task %s has more than one of Start, StartErr and Starter", t.Tensor)
	case !fn && !starter:
		return fmt.Errorf("core: task must have a Start function")
	}
	return nil
}

// resolved counts one partition completed or permanently failed.
func (t *Task) resolved() {
	t.remaining--
	if t.remaining == 0 && t.OnFinished != nil {
		t.OnFinished()
	}
}

// Handle is one partition's record from readiness to completion: its entry
// in the scheduler's queues and, once started, the substrate's completion
// handle. A task's handles are one slab that lives as long as the task, so
// a second readiness or a second Done on one is always detected.
type Handle struct {
	s         *Scheduler
	task      *Task
	i         int // index into task.subs
	prio      int64
	seq       uint64
	started   bool
	finished  bool
	attempts  int       // failed attempts so far
	spanStart time.Time // set when a tracer or the latency histogram is attached
}

// Sub returns the partition this handle stands for.
func (h *Handle) Sub() tensor.Sub { return h.task.subs[h.i] }

// Done reports the partition's outcome, exactly once per start: Done(nil) is
// notify_finish; Done(err) returns its credit at once and requeues it until
// the policy's retry budget is exhausted.
func (h *Handle) Done(err error) {
	if guard := h.s.guard; guard != nil {
		guard(h, err)
		return
	}
	h.s.complete(h, err)
}

// launch hands the partition to the substrate in the form the task supplied.
func (h *Handle) launch() {
	switch t := h.task; {
	case t.Starter != nil:
		t.Starter.StartSub(h)
	case t.StartErr != nil:
		t.StartErr(h.Sub(), h.Done)
	default:
		t.Start(h.Sub(), func() { h.Done(nil) })
	}
}

// before orders handles by (prio, seq), a total order.
func (h *Handle) before(o *Handle) bool {
	return h.prio < o.prio || h.prio == o.prio && h.seq < o.seq
}

// priorityQueue is a binary min-heap of handles by (prio, seq).
type priorityQueue []*Handle

func (q *priorityQueue) push(h *Handle) {
	s := append(*q, h)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = h
	*q = s
}

func (q *priorityQueue) pop() {
	s := *q
	n := len(s) - 1
	last := s[n]
	s[n] = nil
	s = s[:n]
	*q = s
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && s[c+1].before(s[c]) {
			c++
		}
		if !s[c].before(last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	if n > 0 {
		s[i] = last
	}
}

// Stats are scheduler counters for analysis and tests. Obtain them through
// Snapshot (or the equivalent Stats method): the scheduler mutates its
// counters while it runs, and the snapshot reads each field atomically so
// concurrent consumers (benchsuite, runner, metric scrapers) never observe
// torn values.
type Stats struct {
	// TasksEnqueued counts Enqueue calls.
	TasksEnqueued uint64
	// SubsStarted counts partitions released to the network.
	SubsStarted uint64
	// SubsFinished counts completed partitions.
	SubsFinished uint64
	// Preemptions counts starts where the released partition arrived later
	// than some partition still waiting in the queue — i.e. it jumped
	// ahead thanks to priority.
	Preemptions uint64
	// MaxQueueLen is the high-water mark of the ready queue.
	MaxQueueLen int
	// MaxInflightBytes is the high-water mark of in-flight bytes.
	MaxInflightBytes int64
	// Retries counts partitions requeued after a reported failure; every
	// retry returned the partition's credit first, so the invariant
	// SubsStarted == SubsFinished + Failures + Retries holds at quiescence.
	Retries uint64
	// Failures counts partitions that exhausted the retry budget.
	Failures uint64
}

// Scheduler implements Algorithm 1.
type Scheduler struct {
	policy Policy
	queue  priorityQueue
	// arrivals holds queued handles in arrival order from index first on,
	// pruned lazily of started ones; it answers "is an earlier arrival still
	// waiting?" in amortized O(1) for the preemption counter.
	arrivals      []*Handle
	first         int
	seq           uint64
	credit        int64 // remaining credit; meaningful when limited
	limited       bool
	inflight      int
	inflightBytes int64
	stats         statsCell
	scheduling    bool

	// inst holds resolved metric handles (all nil when uninstrumented);
	// tracer, when non-nil, records wall-clock partition spans.
	inst   instruments
	tracer *trace.Wall

	// spawn, when non-nil, runs a partition's launch (AsyncScheduler
	// installs a goroutine launcher; the simulator runs inline).
	spawn func(h *Handle)
	// guard, when non-nil, serializes a completion re-entering scheduler
	// state (AsyncScheduler installs its mutex around complete).
	guard func(h *Handle, err error)
	// flushHook, when non-nil, fires at the end of every scheduling pass
	// that released at least one partition — the transport's cue that no
	// further releases are imminent, so a coalescing batcher (e.g.
	// netps.Batcher) can flush without waiting out its deadline.
	flushHook func()
}

// New returns a scheduler for the given policy. It panics on an invalid
// policy, surfacing configuration bugs at construction.
func New(policy Policy) *Scheduler {
	if err := policy.Validate(); err != nil {
		panic(err)
	}
	return &Scheduler{
		policy:  policy,
		credit:  policy.CreditBytes,
		limited: policy.CreditBytes > 0,
	}
}

// Policy returns the scheduler's policy.
func (s *Scheduler) Policy() Policy { return s.policy }

// Snapshot returns an atomically read copy of the scheduler counters; it
// is safe to call from any goroutine while the scheduler runs.
func (s *Scheduler) Snapshot() Stats { return s.stats.Snapshot() }

// Stats returns a snapshot of the scheduler counters (alias of Snapshot).
func (s *Scheduler) Stats() Stats { return s.Snapshot() }

// Pending returns the number of ready partitions waiting in the queue.
func (s *Scheduler) Pending() int { return len(s.queue) }

// InFlight returns the number of partitions currently in the network.
func (s *Scheduler) InFlight() int { return s.inflight }

// CreditAvailable returns the remaining credit in bytes; -1 when unlimited.
func (s *Scheduler) CreditAvailable() int64 {
	if !s.limited {
		return -1
	}
	return s.credit
}

// Enqueue registers a CommTask with the Core and partitions it
// (CommTask.partition). The task is not transmitted until NotifyReady —
// most frameworks post communication operations before the tensor is
// computed.
func (s *Scheduler) Enqueue(t *Task) {
	unit := s.policy.PartitionUnit
	if s.policy.PartitionFn != nil {
		unit = s.policy.PartitionFn(t.Tensor)
	}
	s.EnqueueSubs(t, tensor.AppendPartition(t.one[:0], t.Tensor, unit))
}

// EnqueueSubs is Enqueue for a task the caller has already partitioned;
// subs may be shared by many tasks, as the scheduler only reads it.
func (s *Scheduler) EnqueueSubs(t *Task, subs []tensor.Sub) {
	if err := t.validate(); err != nil {
		panic(err.Error())
	}
	if t.enqueued {
		panic(fmt.Sprintf("core: task %s enqueued twice", t.Tensor))
	}
	if len(subs) == 0 {
		panic(fmt.Sprintf("core: task %s enqueued with no partitions", t.Tensor))
	}
	t.enqueued, t.err = true, nil
	t.subs, t.remaining = subs, len(subs)
	s.stats.tasksEnqueued.Add(1)
	s.inst.tasksEnqueued.Inc()
}

// SetPartitionUnit changes the partition size for tasks enqueued from now
// on; in-flight and already-partitioned tasks are unaffected. A per-layer
// PartitionFn, if any, is cleared — the tuner takes over the knob. This
// supports the paper's runtime auto-tuning, which adjusts the knob between
// profiling windows (§5: all-reduce adjusts without stopping training).
func (s *Scheduler) SetPartitionUnit(unit int64) {
	if unit < 0 {
		panic("core: negative partition unit")
	}
	s.policy.PartitionUnit = unit
	s.policy.PartitionFn = nil
}

// SetCredit changes the credit window live. The delta is applied to the
// available credit, so in-flight bytes keep their reservations; shrinking
// below the currently in-flight volume simply delays new admissions until
// enough credit returns. Setting 0 makes the credit unlimited.
func (s *Scheduler) SetCredit(creditBytes int64) {
	if creditBytes < 0 {
		panic("core: negative credit")
	}
	old := s.policy.CreditBytes
	s.policy.CreditBytes = creditBytes
	switch {
	case creditBytes == 0:
		s.limited = false
	case !s.limited:
		s.limited = true
		s.credit = creditBytes - s.inflightBytes
	default:
		s.credit += creditBytes - old
	}
	s.schedule()
}

// NotifyReady marks the task's tensor as computed (CommTask.notify_ready):
// its partitions enter the priority queue and become eligible for
// transmission.
func (s *Scheduler) NotifyReady(t *Task) {
	if !t.enqueued {
		panic(fmt.Sprintf("core: NotifyReady before Enqueue for %s", t.Tensor))
	}
	for i := range t.subs {
		s.ready(t, i)
	}
	s.schedule()
}

// NotifySubReady marks partition i of the task ready on its own — a PS pull
// partition aggregated while the rest of its tensor is not (Theorem 1,
// condition 3) — queueing it exactly as NotifyReady would have.
func (s *Scheduler) NotifySubReady(t *Task, i int) {
	if i < 0 || i >= len(t.subs) {
		panic(fmt.Sprintf("core: partition %d of %s ready, %d enqueued", i, t.Tensor, len(t.subs)))
	}
	s.ready(t, i)
	s.schedule()
}

// ready queues partition i. The task's handle slab, made with its first
// ready partition, is its one readiness record: a second readiness panics.
func (s *Scheduler) ready(t *Task, i int) {
	if t.handles == nil {
		t.handles = make([]Handle, len(t.subs))
	}
	h := &t.handles[i]
	if h.s != nil {
		panic(fmt.Sprintf("core: %s ready twice", t.subs[i]))
	}
	h.s, h.task, h.i = s, t, i
	s.push(h)
}

// SetFlushHook installs fn to run at the end of every scheduling pass that
// released at least one partition — i.e. the moment the scheduler knows no
// further release is imminent (the queue drained or credit blocked). A
// transport that coalesces sub-partition messages (netps.Batcher) uses
// this as its flush point, so batching amortizes the per-message overhead
// θ without adding latency beyond the scheduling pass itself. fn must not
// re-enter the scheduler. Passing nil detaches. Attach before scheduling
// begins; AsyncScheduler.SetFlushHook serializes for you.
func (s *Scheduler) SetFlushHook(fn func()) { s.flushHook = fn }

// schedule releases queued partitions while credit allows (Algorithm 1,
// procedure SCHEDULE). To avoid deadlock on partitions larger than the
// whole credit, the head is always released when nothing is in flight.
func (s *Scheduler) schedule() {
	if s.scheduling {
		return // re-entrant call from a done callback inside start
	}
	s.scheduling = true
	defer func() { s.scheduling = false }()
	released := 0
	for len(s.queue) > 0 {
		head := s.queue[0]
		if s.limited && s.credit < head.Sub().Bytes && s.inflight > 0 {
			break // wait until a subtask finishes and returns credit
		}
		s.queue.pop()
		s.start(head)
		released++
	}
	if released > 0 && s.flushHook != nil {
		s.flushHook()
		s.inst.flushes.Inc()
	}
}

// push stamps a handle with its arrival sequence and priority and queues it.
func (s *Scheduler) push(h *Handle) {
	s.seq++
	h.seq, h.prio = s.seq, int64(s.seq)
	if s.policy.Priority != nil {
		h.prio = s.policy.Priority(h.task.Tensor, s.seq)
	}
	s.queue.push(h)
	if s.first > 0 && len(s.arrivals) == cap(s.arrivals) && 2*s.first >= len(s.arrivals) {
		// Compact in place rather than let append grow past a dead prefix.
		n := copy(s.arrivals, s.arrivals[s.first:])
		clear(s.arrivals[n:])
		s.arrivals, s.first = s.arrivals[:n], 0
	}
	s.arrivals = append(s.arrivals, h)
	setMax(&s.stats.maxQueueLen, int64(len(s.queue)))
	s.inst.queueDepth.Set(int64(len(s.queue)))
}

func (s *Scheduler) start(h *Handle) {
	h.started = true
	// A started partition that arrived after a still-queued one means
	// priority let it jump the line. Prune already-started arrivals lazily.
	for s.first < len(s.arrivals) && s.arrivals[s.first].started {
		s.arrivals[s.first] = nil
		s.first++
	}
	if s.first == len(s.arrivals) {
		s.arrivals, s.first = s.arrivals[:0], 0
	} else if s.arrivals[s.first].seq < h.seq {
		s.stats.preemptions.Add(1)
		s.inst.preemptions.Inc()
	}
	bytes := h.Sub().Bytes
	if s.limited {
		s.credit -= bytes
	}
	s.inflight++
	s.inflightBytes += bytes
	setMax(&s.stats.maxInflightBytes, s.inflightBytes)
	s.stats.subsStarted.Add(1)
	s.inst.subsStarted.Inc()
	s.observeGauges()
	s.beginSpan(h)
	if s.spawn != nil {
		s.spawn(h)
	} else {
		h.launch()
	}
}

// complete resolves a started partition: the span ends, its credit returns,
// and it either finishes, is requeued or fails its task.
func (s *Scheduler) complete(h *Handle, err error) {
	if h.finished {
		panic(fmt.Sprintf("core: done called twice for %s", h.Sub()))
	}
	h.finished = true
	s.endSpan(h)
	bytes := h.Sub().Bytes
	if s.limited {
		s.credit += bytes
	}
	s.inflight--
	s.inflightBytes -= bytes
	s.observeGauges()
	if err != nil {
		s.fail(h, err)
	} else {
		s.stats.subsFinished.Add(1)
		s.inst.subsFinished.Inc()
		h.task.resolved()
	}
	s.schedule()
}

// fail handles a partition whose Start reported an error: credit has
// already been returned by the caller; the partition is requeued while the
// retry budget lasts, then declared permanently failed. A permanently
// failed partition still resolves the task (OnFinished fires, Err is set)
// so waiters never hang on a dead substrate.
func (s *Scheduler) fail(h *Handle, err error) {
	task := h.task
	if h.attempts < s.policy.MaxRetries {
		s.stats.retries.Add(1)
		s.inst.retries.Inc()
		// A fresh handle: the failed one may still sit, started, in arrivals.
		s.push(&Handle{s: s, task: task, i: h.i, attempts: h.attempts + 1})
		return
	}
	s.stats.failures.Add(1)
	s.inst.failures.Inc()
	if task.err == nil {
		task.err = err
	}
	task.resolved()
}
