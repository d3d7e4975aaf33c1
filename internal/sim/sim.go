// Package sim implements a deterministic discrete-event simulation engine.
//
// Time is a float64 number of seconds starting at zero. Events scheduled for
// the same instant fire in the order they were scheduled (a monotonically
// increasing sequence number breaks ties), so simulations are fully
// deterministic and reproducible.
//
// The engine is single-threaded by design: event callbacks run inline on the
// goroutine that calls Run, and may schedule further events. This mirrors how
// ML framework engines dispatch dependent operations and keeps the
// ByteScheduler core logic free of locking in simulation mode.
package sim

import (
	"container/heap"
	"fmt"
	"math"

	"bytescheduler/internal/recycle"
)

// Time is a simulated instant, in seconds since the start of the run.
type Time = float64

// Handler receives typed events. A record that implements it is its own
// callback: scheduling it with After captures nothing and allocates nothing,
// and arg tells the record which of its steps is due.
type Handler interface {
	Fire(arg int)
}

// handlerFunc is the closure adapter: Schedule and At post the same kind of
// event as After, with the callback as its receiver.
type handlerFunc func()

// Fire implements Handler.
func (f handlerFunc) Fire(int) { f() }

// Event is a scheduled callback. The zero Event is invalid; use
// Engine.Schedule or Engine.At to create one.
type Event struct {
	when   Time
	seq    uint64
	h      Handler
	arg    int
	index  int // heap index; -1 once popped or canceled
	canc   bool
	pooled bool // posted by After: no handle escaped, so the engine reuses it
	engine *Engine
}

// Canceled reports whether Cancel was called on the event before it fired.
func (e *Event) Canceled() bool { return e.canc }

// When returns the simulated time at which the event fires (or would have
// fired, if canceled).
func (e *Event) When() Time { return e.when }

// Cancel prevents a pending event from firing. Canceling an event that has
// already fired or been canceled is a no-op.
func (e *Event) Cancel() {
	if e.canc || e.index < 0 {
		e.canc = true
		return
	}
	e.canc = true
	heap.Remove(&e.engine.queue, e.index)
	e.index = -1
}

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Engine is a discrete-event simulation engine. The zero value is ready to
// use.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventQueue
	running bool
	fired   uint64
	// free holds the events After posted that have since fired; an event
	// enters it just before its handler runs.
	free recycle.List[*Event]
}

// New returns a new Engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far. Useful in tests and as
// a progress/cost metric.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting to fire.
func (e *Engine) Pending() int { return e.queue.Len() }

// Schedule arranges for fn to run after delay. A negative or NaN delay is an
// error in the caller; Schedule panics to surface the bug immediately rather
// than silently reordering time.
func (e *Engine) Schedule(delay Time, fn func()) *Event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: negative or NaN delay %v", delay))
	}
	return e.At(e.now+delay, fn)
}

// At arranges for fn to run at absolute time when, which must not precede the
// current time. The returned handle stays valid (and Cancel on it harmless)
// after the event fires: an event with a handle is never reused.
func (e *Engine) At(when Time, fn func()) *Event {
	if fn == nil {
		panic("sim: nil event callback")
	}
	ev := &Event{engine: e}
	e.post(ev, when, handlerFunc(fn), 0)
	return ev
}

// After arranges for h.Fire(arg) to run after delay (not negative or NaN),
// in the same (time, sequence) order as Schedule. It returns no handle, so
// the event cannot be canceled — and, once fired, goes back to the engine to
// carry a later After: a steady stream of typed events allocates nothing.
func (e *Engine) After(delay Time, h Handler, arg int) {
	ev := recycle.Take(&e.free)
	ev.engine, ev.pooled = e, true
	e.post(ev, e.now+delay, h, arg)
}

func (e *Engine) post(ev *Event, when Time, h Handler, arg int) {
	if when < e.now || math.IsNaN(when) {
		panic(fmt.Sprintf("sim: scheduling into the past: now=%v when=%v", e.now, when))
	}
	e.seq++
	ev.when, ev.seq, ev.h, ev.arg = when, e.seq, h, arg
	heap.Push(&e.queue, ev)
}

// Step fires the single earliest pending event and returns true, or returns
// false if no events remain.
func (e *Engine) Step() bool {
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.canc {
			continue
		}
		e.now = ev.when
		e.fired++
		h, arg := ev.h, ev.arg
		if ev.pooled {
			ev.h = nil
			e.free.Put(ev)
		}
		h.Fire(arg)
		return true
	}
	return false
}

// Run fires events until none remain.
func (e *Engine) Run() {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.Step() {
	}
}

// RunUntil fires events until the clock would pass deadline or no events
// remain. Events at exactly deadline still fire. It returns the number of
// events fired.
func (e *Engine) RunUntil(deadline Time) uint64 {
	if e.running {
		panic("sim: RunUntil called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	start := e.fired
	for e.queue.Len() > 0 {
		next := e.queue[0].when
		if next > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.fired - start
}

// RunWhile fires events while cond returns true and events remain.
func (e *Engine) RunWhile(cond func() bool) {
	if e.running {
		panic("sim: RunWhile called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for cond() && e.Step() {
	}
}
