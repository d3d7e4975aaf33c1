package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"bytescheduler/internal/metrics"
	"bytescheduler/internal/tensor"
	"bytescheduler/internal/trace"
)

// statsCell holds the scheduler counters as atomics so Snapshot can be
// taken from any goroutine while the scheduler mutates them — benchsuite,
// the runner, metric scrapers and tests all read mid-run. Mutation happens
// under the scheduler's execution discipline (inline for the synchronous
// Scheduler, under AsyncScheduler's mutex); reads are lock-free.
type statsCell struct {
	tasksEnqueued    atomic.Uint64
	subsStarted      atomic.Uint64
	subsFinished     atomic.Uint64
	preemptions      atomic.Uint64
	retries          atomic.Uint64
	failures         atomic.Uint64
	maxQueueLen      atomic.Int64
	maxInflightBytes atomic.Int64
}

// setMax raises g to v if larger.
func setMax(g *atomic.Int64, v int64) {
	for {
		cur := g.Load()
		if v <= cur || g.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot returns a consistent-enough copy: each field is read atomically,
// so no torn values are possible even while the scheduler runs.
func (c *statsCell) Snapshot() Stats {
	// Load finished before started. Both only grow and finished <= started
	// holds at every instant, so a started value read *after* the finished
	// read can only be >= it; the opposite order let a partition start and
	// finish between the two loads and surface finished > started.
	finished := c.subsFinished.Load()
	return Stats{
		TasksEnqueued:    c.tasksEnqueued.Load(),
		SubsStarted:      c.subsStarted.Load(),
		SubsFinished:     finished,
		Preemptions:      c.preemptions.Load(),
		MaxQueueLen:      int(c.maxQueueLen.Load()),
		MaxInflightBytes: c.maxInflightBytes.Load(),
		Retries:          c.retries.Load(),
		Failures:         c.failures.Load(),
	}
}

// instruments are the scheduler's resolved metric handles. All handles are
// nil (no-op) until Instrument attaches a registry, so the uninstrumented
// hot path pays one nil check per update.
type instruments struct {
	subsStarted   *metrics.Counter
	subsFinished  *metrics.Counter
	retries       *metrics.Counter
	failures      *metrics.Counter
	preemptions   *metrics.Counter
	tasksEnqueued *metrics.Counter
	flushes       *metrics.Counter

	queueDepth      *metrics.Gauge
	inflight        *metrics.Gauge
	inflightBytes   *metrics.Gauge
	creditAvailable *metrics.Gauge
	creditOccupancy *metrics.Gauge // high-water in-flight bytes vs credit

	partitionSeconds *metrics.Histogram
}

// Instrument attaches a metrics registry: counters mirror Stats, gauges
// track live credit occupancy and queue depth, and the histogram records
// per-partition start→finish wall-clock latency. Passing nil detaches.
// Attach before scheduling begins (the synchronous Scheduler is not
// goroutine-safe; AsyncScheduler.Instrument serializes for you).
func (s *Scheduler) Instrument(reg *metrics.Registry) {
	if reg == nil {
		s.inst = instruments{}
		return
	}
	s.inst = instruments{
		subsStarted:      reg.Counter("core_subs_started_total"),
		subsFinished:     reg.Counter("core_subs_finished_total"),
		retries:          reg.Counter("core_retries_total"),
		failures:         reg.Counter("core_failures_total"),
		preemptions:      reg.Counter("core_preemptions_total"),
		tasksEnqueued:    reg.Counter("core_tasks_enqueued_total"),
		flushes:          reg.Counter("core_flushes_total"),
		queueDepth:       reg.Gauge("core_queue_depth"),
		inflight:         reg.Gauge("core_inflight_partitions"),
		inflightBytes:    reg.Gauge("core_inflight_bytes"),
		creditAvailable:  reg.Gauge("core_credit_available_bytes"),
		creditOccupancy:  reg.Gauge("core_credit_occupancy_bytes"),
		partitionSeconds: reg.Histogram("core_partition_seconds"),
	}
}

// SetTracer attaches a wall-clock tracer: every partition's start→finish
// becomes a span on the "core/L<layer>" lane, in the exact schema the
// simulator's recorder emits, so live and simulated timelines are
// comparable in one Chrome-trace viewer. Passing nil detaches. Attach
// before scheduling begins.
func (s *Scheduler) SetTracer(w *trace.Wall) { s.tracer = w }

// observeGauges refreshes the live gauges after any queue/credit movement.
func (s *Scheduler) observeGauges() {
	s.inst.queueDepth.Set(int64(len(s.queue)))
	s.inst.inflight.Set(int64(s.inflight))
	s.inst.inflightBytes.Set(s.inflightBytes)
	s.inst.creditOccupancy.SetMax(s.inflightBytes)
	if s.limited {
		s.inst.creditAvailable.Set(s.credit)
	}
}

// spanName labels a partition span, e.g. "grad3[2/5]".
func spanName(sub tensor.Sub) string {
	return fmt.Sprintf("%s[%d/%d]", sub.Parent.Name, sub.Index+1, sub.Count)
}

// spanLane groups partition spans per layer so priority inversions are
// visible at a glance.
func spanLane(sub tensor.Sub) string {
	return fmt.Sprintf("core/L%02d", sub.Parent.Layer)
}

// beginSpan stamps a partition's start instant when either the tracer or
// the latency histogram needs it; endSpan records both at finish.
func (s *Scheduler) beginSpan(h *Handle) {
	if s.tracer != nil || s.inst.partitionSeconds != nil {
		h.spanStart = time.Now()
	}
}

func (s *Scheduler) endSpan(h *Handle) {
	if h.spanStart.IsZero() {
		return
	}
	end := time.Now()
	s.inst.partitionSeconds.Observe(end.Sub(h.spanStart).Seconds())
	s.tracer.Add(spanLane(h.Sub()), spanName(h.Sub()), h.spanStart, end)
}
