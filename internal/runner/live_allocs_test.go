package runner

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"bytescheduler/internal/core"
)

// TestLiveSteadyStateAllocs holds both live backends, on the benchmark's
// live_ps and live_ring shape (two workers, a 3.875 MB rear-heavy model in
// 256 KB partitions under a 1 MB credit), to budgets for what a run
// allocates once and what each further iteration adds. It fits allocations
// = setUp + perIter · iterations through an 8- and a 24-iteration run, each
// the least of two; both shapes together take about 4 s on 2 vCPUs.
//
// An iteration allocates nothing: each worker's per-layer task, starter and
// OnFinished are built once and re-enqueued, a task re-cuts its partitions
// and handle slab only when its unit changes, a partition starts on a
// goroutine bound once per handle and hands the transport its handle, each
// connection reads a repeated key into the string it made the first time,
// and the netps server recycles its entries. Without the race detector both
// shapes measured -1 to 7 allocations and up to 0.6 KB of objects up to
// 18 KB (the runtime's size classes) per iteration; with it, -4 to 1 and up
// to 0.2 KB. Before, PS read 305-310 allocations and about 14 KB per
// iteration (375 with the detector), the ring 181-185 and 10.5 KB. Both
// budgets, 16 allocations and 2 KB of such objects, are the measured
// values plus a margin of about ten allocations, and fail a fresh core.Task
// per layer per pass (76 allocations), a closure per partition start (29)
// or a key string made per partition (63). Larger objects are the recycled
// payload buffers, whose count settles with how far the workers'
// iterations overlap: one more or less at the end of either run moves
// their slope by 16 KB or more, so they have a budget of their own, loose
// but far below one 256 KB buffer per iteration.
//
// On the PS backend set-up holds the workers' slabs, the one aggregate per
// key the server retains and those of the aggregations in flight, so it
// grows with how far the workers' iterations overlap, which the race
// detector's slowdown widens. Without the detector it measured 23.5-24.6 MB;
// with it, 31-32 MB. While a completed log kept up to 2 MB of sums per
// shard, set-up read 35-36 MB (54 MB with the detector); 49 MB and 77 MB
// before that, while pushes were encoded into buffers of their own, the
// aggregate was encoded from its sum, and each pull's response landed in a
// fresh read buffer. The set-up budgets are about 25 % over the measured
// values and below the completed log's: a 256 KB buffer per partition that
// stops being recycled costs 4 MB per iteration, and one that stops being
// read in place or shared costs megabytes of set-up.
//
// On the ring backend set-up is the workers' slabs and the peers' segment
// buffers and slot and collective records: 16.6-16.9 MB, with the detector
// too. Its set-up budget is about 20 % over (24 MB with the detector, which
// read 19.0-19.1 MB while every iteration made its own records).
func TestLiveSteadyStateAllocs(t *testing.T) {
	type budget struct{ setUp, perIterAllocs, perIterSmall, perIterBytes int }
	for _, tc := range []struct {
		name        string
		backend     LiveBackend
		plain, race budget
	}{
		{"live_ps", LiveBackendPS, budget{30 << 20, 16, 2 << 10, 96 << 10}, budget{40 << 20, 16, 2 << 10, 160 << 10}},
		{"live_ring", LiveBackendRing, budget{23 << 20, 16, 2 << 10, 96 << 10}, budget{24 << 20, 16, 2 << 10, 96 << 10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.plain
			if raceEnabled() {
				b = tc.race
			}
			cfg := LiveConfig{
				Backend:         tc.backend,
				Workers:         2,
				LayerBytes:      []int64{128 << 10, 256 << 10, 512 << 10, 1 << 20, 1 << 20, 1 << 20},
				Policy:          core.ByteScheduler(256<<10, 1<<20),
				Warmup:          1,
				ForwardCompute:  2 * time.Millisecond,
				BackwardCompute: 200 * time.Microsecond,
			}
			short, long := cfg, cfg
			short.Iterations, long.Iterations = 8, 24
			s, l := liveAllocs(t, short), liveAllocs(t, long)
			extra := float64(long.Iterations - short.Iterations)
			allocs := (float64(l.allocs) - float64(s.allocs)) / extra
			small := (float64(l.small) - float64(s.small)) / extra
			bytes := (float64(l.bytes) - float64(s.bytes)) / extra
			setUp := float64(s.bytes) - bytes*float64(short.Iterations)
			msg := fmt.Sprintf("%s shape: %.1f MB set-up, then %.0f allocations, %.2f KB of objects up to 18 KB and %.1f KB in all per iteration (budget %d MB, %d, %d KB and %d KB)",
				tc.name, setUp/(1<<20), allocs, small/(1<<10), bytes/(1<<10), b.setUp>>20, b.perIterAllocs, b.perIterSmall>>10, b.perIterBytes>>10)
			if setUp > float64(b.setUp) || allocs > float64(b.perIterAllocs) || small > float64(b.perIterSmall) || bytes > float64(b.perIterBytes) {
				t.Fatal(msg)
			}
			t.Log(msg)
		})
	}
}

// runAllocs is what one run allocated: objects, bytes of the objects in
// the runtime's size classes (up to 18 KB), and bytes in all.
type runAllocs struct{ allocs, small, bytes uint64 }

// liveAllocs returns one live run's allocations, each count the least of
// two runs.
func liveAllocs(t *testing.T, cfg LiveConfig) runAllocs {
	t.Helper()
	least := runAllocs{math.MaxUint64, math.MaxUint64, math.MaxUint64}
	for i := 0; i < 2; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunLive(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least.allocs = min(least.allocs, after.Mallocs-before.Mallocs)
		least.small = min(least.small, sizeClassBytes(&after)-sizeClassBytes(&before))
		least.bytes = min(least.bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// sizeClassBytes is the bytes allocated in objects of the runtime's size
// classes, all but the large objects.
func sizeClassBytes(m *runtime.MemStats) (n uint64) {
	for _, c := range m.BySize {
		n += uint64(c.Size) * c.Mallocs
	}
	return n
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, st := range bi.Settings {
			if st.Key == "-race" {
				return st.Value == "true"
			}
		}
	}
	return false
}
