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
	"fmt"
	"math"
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

// Event is the handle Schedule and At return. An event can be neither
// canceled nor inspected once posted, so the handle carries nothing.
type Event struct{}

// event is one queue entry: h.Fire(arg) is due at (when, seq).
type event struct {
	when Time
	seq  uint64
	h    Handler
	arg  int
}

func (a *event) before(b *event) bool {
	return a.when < b.when || a.when == b.when && a.seq < b.seq
}

// eventQueue is a binary min-heap of events by (when, seq), held by value:
// the queue is the events' only record, so there is nothing to recycle.
type eventQueue []event

func (q *eventQueue) push(ev event) {
	s := append(*q, ev)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = ev
	*q = s
}

func (q *eventQueue) pop() event {
	s := *q
	top, n := s[0], len(s)-1
	last := s[n]
	s[n] = event{} // the popped handler must not stay reachable
	s = s[:n]
	*q = s
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && s[c+1].before(&s[c]) {
			c++
		}
		if !s[c].before(&last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	if n > 0 {
		s[i] = last
	}
	return top
}

// Engine is a discrete-event simulation engine. The zero value is ready to
// use.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventQueue
	running bool
	fired   uint64
}

// New returns a new Engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Reset returns the engine to its state after New — clock, sequence
// counter and event count at zero, no event pending — keeping the event
// heap's capacity for the next run. Any pending event is dropped.
func (e *Engine) Reset() {
	if e.running {
		panic("sim: Reset called while running")
	}
	clear(e.queue)
	*e = Engine{queue: e.queue[:0]}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far. Useful in tests and as
// a progress/cost metric.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting to fire.
func (e *Engine) Pending() int { return len(e.queue) }

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
// current time.
func (e *Engine) At(when Time, fn func()) *Event {
	if fn == nil {
		panic("sim: nil event callback")
	}
	e.post(when, handlerFunc(fn), 0)
	return &Event{}
}

// After arranges for h.Fire(arg) to run after delay (not negative or NaN),
// in the same (time, sequence) order as Schedule. It returns no handle and,
// with a record as the handler, allocates nothing.
func (e *Engine) After(delay Time, h Handler, arg int) {
	e.post(e.now+delay, h, arg)
}

func (e *Engine) post(when Time, h Handler, arg int) {
	if when < e.now || math.IsNaN(when) {
		panic(fmt.Sprintf("sim: scheduling into the past: now=%v when=%v", e.now, when))
	}
	e.seq++
	e.queue.push(event{when, e.seq, h, arg})
}

// Step fires the single earliest pending event and returns true, or returns
// false if no events remain.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.when
	e.fired++
	ev.h.Fire(ev.arg)
	return true
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
