package runner

import (
	"math/rand"
	"testing"
	"time"

	"bytescheduler/internal/core"
	"bytescheduler/internal/stats"
)

// fakeWall is a wall clock whose sleeps overshoot by a random 0-1 ms, the
// order of an idle timer's slack on a small VM; a sleep of d <= 0 returns at
// once, as time.Sleep does.
type fakeWall struct {
	t   time.Time
	rng *rand.Rand
}

func newFakeWall(seed int64) *fakeWall {
	return &fakeWall{t: time.Unix(1000, 0), rng: rand.New(rand.NewSource(seed))}
}

func (w *fakeWall) now() time.Time { return w.t }

func (w *fakeWall) sleep(d time.Duration) {
	if d > 0 {
		w.t = w.t.Add(d + time.Duration(w.rng.Int63n(int64(time.Millisecond))))
	}
}

func (w *fakeWall) clock() *deviceClock {
	return &deviceClock{free: w.t, now: w.now, sleep: w.sleep}
}

// TestDeviceClockAbsorbsOvershoot: k ops of d end exactly k·d after the
// clock's start however far each sleep overshot, and no op returns before
// its nominal end on the wall clock.
func TestDeviceClockAbsorbsOvershoot(t *testing.T) {
	const k, d = 50, 200 * time.Microsecond
	wall := newFakeWall(1)
	c := wall.clock()
	t0 := c.free
	for i := 0; i < k; i++ {
		if idle := c.run(time.Time{}, d); idle != 0 {
			t.Fatalf("op %d idled %v with no gate", i, idle)
		}
		if wall.t.Before(c.free) {
			t.Fatalf("op %d returned at %v, before its nominal end %v", i, wall.t.Sub(t0), c.free.Sub(t0))
		}
	}
	if got := c.free.Sub(t0); got != k*d {
		t.Fatalf("%d ops of %v end at %v on the clock, want %v", k, d, got, k*d)
	}
	t.Logf("%d ops of %v: clock %v, fake wall %v", k, d, c.free.Sub(t0), wall.t.Sub(t0))
}

// TestDeviceClockWaitsForRelease: an op starts at the later of the device
// being free and its gate's release instant, never before the release, and
// the idle time it reports is exactly the gap it waited.
func TestDeviceClockWaitsForRelease(t *testing.T) {
	const d = 2 * time.Millisecond
	wall := newFakeWall(2)
	rng := rand.New(rand.NewSource(3))
	c := wall.clock()
	waited := 0
	for i := 0; i < 200; i++ {
		// Releases land from 3 ms before to 3 ms after the fake wall.
		ready := wall.t.Add(time.Duration(rng.Int63n(int64(6*time.Millisecond))) - 3*time.Millisecond)
		free := c.free
		idle := c.run(ready, d)
		start := c.free.Add(-d)
		if start.Before(ready) {
			t.Fatalf("op %d started %v before its release", i, ready.Sub(start))
		}
		want := max(ready.Sub(free), 0)
		if !start.Equal(free.Add(want)) || idle != want {
			t.Fatalf("op %d: started %v after the device was free and idled %v, want %v for both", i, start.Sub(free), idle, want)
		}
		if wall.t.Before(c.free) {
			t.Fatalf("op %d returned %v before its nominal end", i, c.free.Sub(wall.t))
		}
		if want > 0 {
			waited++
		}
	}
	if waited == 0 {
		t.Fatal("no op waited for its release: the test exercised no gate")
	}
}

// TestShapedLinkClock: N messages queued on the shaped link together end
// N·d after the first one starts, however far each sleep overshot, and
// none returns before its nominal end.
func TestShapedLinkClock(t *testing.T) {
	const n, d = 20, 500 * time.Microsecond
	wall := newFakeWall(4)
	s := newLinkShaper([]LinkShape{{PerMessage: d}}, 1, nil)
	s.link.now, s.link.sleep = wall.now, wall.sleep
	t0 := wall.t
	for i := 0; i < n; i++ {
		wall.t = t0 // every message was posted at t0, the link busy
		s.hold(0, 4)
		if got, want := s.link.free.Sub(t0), time.Duration(i+1)*d; got != want {
			t.Fatalf("message %d ends %v after the first started, want %v", i, got, want)
		}
		if wall.t.Before(s.link.free) {
			t.Fatalf("message %d returned %v before its nominal end", i, s.link.free.Sub(wall.t))
		}
	}
	// A message posted after the link went idle starts when posted.
	wall.t = s.link.free.Add(time.Millisecond)
	posted := wall.t
	s.hold(0, 4)
	if got := s.link.free.Sub(posted); got != d {
		t.Fatalf("a message on an idle link ends %v after it was posted, want %v", got, d)
	}
}

// TestRunLiveDeviceClockPS runs the benchmark's live_ps shape and logs its
// mean iteration against the nominal compute and the exposed
// communication. It is wall-clock output for a reader, not a gate.
func TestRunLiveDeviceClockPS(t *testing.T) {
	cfg := LiveConfig{
		Backend:         LiveBackendPS,
		Workers:         2,
		LayerBytes:      []int64{128 << 10, 256 << 10, 512 << 10, 1 << 20, 1 << 20, 1 << 20},
		Policy:          core.ByteScheduler(256<<10, 1<<20),
		Iterations:      30,
		Warmup:          2,
		ForwardCompute:  2 * time.Millisecond,
		BackwardCompute: 200 * time.Microsecond,
		Seed:            1,
	}
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ExposedComm) != len(res.IterTimes) {
		t.Fatalf("%d exposed-communication samples for %d iterations", len(res.ExposedComm), len(res.IterTimes))
	}
	nominal := float64(len(cfg.LayerBytes)) * (cfg.ForwardCompute + cfg.BackwardCompute).Seconds()
	var exposed float64
	for _, e := range res.ExposedComm {
		if e < 0 {
			t.Fatalf("negative exposed communication %v", e)
		}
		exposed += e
	}
	exposed /= float64(len(res.ExposedComm))
	t.Logf("mean iteration %.2f ms: nominal compute %.2f ms + exposed communication %.2f ms (p50 %.2f ms) + residual %.2f ms",
		res.IterTime*1e3, nominal*1e3, exposed*1e3, stats.Percentile(res.ExposedComm, 50)*1e3, (res.IterTime-nominal-exposed)*1e3)
}
