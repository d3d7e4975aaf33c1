package trace

import "time"

// Wall adapts a Recorder to wall-clock time so the live path (netps,
// core.AsyncScheduler) emits the same span/lane/Chrome-trace schema as the
// simulator: times are seconds since the tracer's epoch, exactly like the
// simulator's virtual seconds since t=0. A live run and a sim run of the
// same workload therefore export directly comparable Chrome traces.
//
// A nil *Wall is valid and records nothing, mirroring *Recorder.
type Wall struct {
	rec   *Recorder
	epoch time.Time
}

// NewWall wraps rec with an epoch of now. A nil rec yields a no-op tracer.
func NewWall(rec *Recorder) *Wall {
	if rec == nil {
		return nil
	}
	return &Wall{rec: rec, epoch: time.Now()}
}

// Add records a wall-clock span.
func (w *Wall) Add(lane, name string, start, end time.Time) {
	if w == nil {
		return
	}
	w.rec.Add(lane, name, start.Sub(w.epoch).Seconds(), end.Sub(w.epoch).Seconds())
}

// Span starts a span now and returns the function that ends it. Safe on a
// nil tracer (returns a no-op).
func (w *Wall) Span(lane, name string) func() {
	if w == nil {
		return func() {}
	}
	start := time.Now()
	return func() { w.Add(lane, name, start, time.Now()) }
}
