package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineEmptyRun(t *testing.T) {
	e := New()
	e.Run()
	if e.Now() != 0 {
		t.Fatalf("Now = %v, want 0", e.Now())
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired = %d, want 0", e.Fired())
	}
}

func TestEngineOrdering(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(2, func() { got = append(got, 2) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(3, func() { got = append(got, 3) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3", e.Now())
	}
}

func TestEngineTieBreakFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New()
	var trace []string
	e.Schedule(1, func() {
		trace = append(trace, "a")
		e.Schedule(0, func() { trace = append(trace, "a0") })
		e.Schedule(1, func() { trace = append(trace, "a1") })
	})
	e.Schedule(1.5, func() { trace = append(trace, "b") })
	e.Run()
	want := []string{"a", "a0", "b", "a1"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

// TestEngineCancelMiddleOfHeap: events posted into the middle of a large
// heap while it drains — earlier, later and tied with what is queued — still
// fire in (when, seq) order.
func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := New()
	type key struct {
		when Time
		seq  int
	}
	var got []key
	posted := 0
	var post func(d Time)
	post = func(d Time) {
		k := key{e.Now() + d, posted}
		posted++
		e.Schedule(d, func() {
			got = append(got, k)
			if k.seq%3 == 0 && posted < 400 {
				post(Time(k.seq % 7))
				post(0)
			}
		})
	}
	for i := 0; i < 100; i++ {
		post(Time(i % 13))
	}
	e.Run()
	if len(got) != posted {
		t.Fatalf("fired %d of %d events", len(got), posted)
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.when > b.when || a.when == b.when && a.seq > b.seq {
			t.Fatalf("event %v fired before %v", a, b)
		}
	}
}

// TestEngineRunUntil: a caller runs to a deadline by stepping — step fires
// one event and moves the clock to it — and Run resumes from there.
func TestEngineRunUntil(t *testing.T) {
	e := New()
	var got []Time
	for _, d := range []Time{1, 2, 3, 4, 5} {
		d := d
		e.Schedule(d, func() { got = append(got, d) })
	}
	for e.Now() < 3 && e.step() {
	}
	if len(got) != 3 || e.Now() != 3 || len(e.queue) != 2 {
		t.Fatalf("fired %v, Now = %v, pending = %d; want 3 events, 3, 2", got, e.Now(), len(e.queue))
	}
	e.Run()
	if len(got) != 5 || e.step() {
		t.Fatalf("total fired %d, want 5 and nothing left to step", len(got))
	}
}

// TestEngineRunWhile: a step loop under a condition stops exactly where the
// condition turns false.
func TestEngineRunWhile(t *testing.T) {
	e := New()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), func() { count++ })
	}
	for count < 4 && e.step() {
	}
	if count != 4 || e.Fired() != 4 {
		t.Fatalf("count = %d, Fired = %d, want 4", count, e.Fired())
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	New().Schedule(-1, func() {})
}

func TestEngineAtPastPanics(t *testing.T) {
	e := New()
	e.Schedule(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling into the past")
		}
	}()
	e.At(1, func() {})
}

func TestEngineNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil callback")
		}
	}()
	New().Schedule(1, nil)
}

// Property: for any set of non-negative delays, events fire in sorted order
// and the final clock equals the maximum delay.
func TestEngineOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := New()
		delays := make([]Time, len(raw))
		var fired []Time
		for i, r := range raw {
			delays[i] = Time(r) / 100
			d := delays[i]
			e.Schedule(d, func() { fired = append(fired, d) })
		}
		e.Run()
		sort.Float64s(delays)
		if len(fired) != len(delays) {
			return false
		}
		for i := range delays {
			if fired[i] != delays[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestServerSerialFIFO(t *testing.T) {
	e := New()
	s := NewServer(e, "gpu")
	var starts, ends []Time
	for i := 0; i < 3; i++ {
		s.Submit(2, func() { starts = append(starts, e.Now()) }, func() { ends = append(ends, e.Now()) })
	}
	e.Run()
	wantStarts := []Time{0, 2, 4}
	wantEnds := []Time{2, 4, 6}
	for i := range wantStarts {
		if starts[i] != wantStarts[i] || ends[i] != wantEnds[i] {
			t.Fatalf("starts=%v ends=%v, want %v %v", starts, ends, wantStarts, wantEnds)
		}
	}
	if s.BusyTime() != 6 {
		t.Fatalf("BusyTime = %v, want 6", s.BusyTime())
	}
}

func TestServerSubmitDuringService(t *testing.T) {
	e := New()
	s := NewServer(e, "nic")
	var order []string
	s.Submit(5, nil, func() {
		order = append(order, "first")
		// Submit from inside a completion callback; must queue behind
		// nothing and start immediately.
		s.Submit(1, nil, func() { order = append(order, "third") })
	})
	e.Schedule(1, func() {
		s.Submit(1, nil, func() { order = append(order, "second") })
	})
	e.Run()
	want := []string{"first", "second", "third"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestServerZeroDuration(t *testing.T) {
	e := New()
	s := NewServer(e, "x")
	done := 0
	s.Submit(0, nil, func() { done++ })
	s.Submit(0, nil, func() { done++ })
	e.Run()
	if done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}
	if e.Now() != 0 {
		t.Fatalf("Now = %v, want 0", e.Now())
	}
}

func TestServerNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative duration")
		}
	}()
	NewServer(New(), "x").Submit(-1, nil, nil)
}

// Property: server busy time equals the sum of job durations, and the last
// completion time is at least the sum (serial service).
func TestServerConservationProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		e := New()
		s := NewServer(e, "srv")
		var sum Time
		rng := rand.New(rand.NewSource(1))
		for _, r := range raw {
			d := Time(r) / 10
			sum += d
			// Submit at random times to interleave idle periods.
			at := Time(rng.Intn(50))
			e.At(at, func() { s.Submit(d, nil, nil) })
		}
		e.Run()
		diff := s.BusyTime() - sum
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-6 && e.Now() >= sum-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []Time {
		e := New()
		var times []Time
		var rec func(depth int)
		rec = func(depth int) {
			times = append(times, e.Now())
			if depth < 4 {
				e.Schedule(0.5, func() { rec(depth + 1) })
				e.Schedule(0.5, func() { rec(depth + 1) })
			}
		}
		e.Schedule(1, func() { rec(0) })
		e.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic timing at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
