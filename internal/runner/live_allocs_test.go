package runner

import (
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
// allocates once and what each further iteration adds. It fits bytes =
// setUp + perIter · iterations through an 8- and a 24-iteration run, each
// the least of two; both shapes together take about 4 s on 2 vCPUs.
//
// On the PS backend set-up holds the workers' slabs, the one aggregate per
// key the server retains and those of the aggregations in flight, so it
// grows with how far the workers' iterations overlap, which the race
// detector's slowdown widens. Without the detector it measured 24.1-24.6 MB
// of set-up, then 4-28 KB and 330-370 allocations per iteration; with it,
// 31-32 MB, 11-54 KB and 375. While a completed log kept up to 2 MB of sums
// per shard, set-up read 35-36 MB (54 MB with the detector); 49 MB and
// 77 MB before that, while pushes were encoded into buffers of their own,
// the aggregate was encoded from its sum, and each pull's response landed
// in a fresh read buffer. The set-up budgets are about 25 % over the
// measured values and below the completed log's: a 256 KB buffer per
// partition that stops being recycled costs 4 MB per iteration, and one
// that stops being read in place or shared costs megabytes of set-up.
//
// On the ring backend set-up is the workers' slabs and the peers' segment
// buffers and slot and collective records: 18.1-18.2 MB (19.0-19.1 MB with
// the detector), then 6-15 KB and 181-185 allocations per iteration. Its
// set-up budget is about 20 % over. While each step allocated a timer and
// each slot a channel, and segments were copied, it read 18.8-20.4 MB, then
// 29-65 KB and 501-506 allocations per iteration, which the allocation
// budget now fails; its byte budget stays loose (below).
//
// The byte budgets per iteration are loose because one buffer more or less
// alive at the end of either run moves the slope by 16 KB or more. The
// allocation budgets are about 15 % over the measured count: an allocation
// or two per call, such as a timer per push, adds 32 to 64.
func TestLiveSteadyStateAllocs(t *testing.T) {
	type budget struct{ setUp, perIterBytes, perIterAllocs int }
	for _, tc := range []struct {
		name        string
		backend     LiveBackend
		plain, race budget
	}{
		{"live_ps", LiveBackendPS, budget{30 << 20, 96 << 10, 400}, budget{40 << 20, 160 << 10, 430}},
		{"live_ring", LiveBackendRing, budget{23 << 20, 96 << 10, 215}, budget{24 << 20, 96 << 10, 215}},
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
			shortAllocs, shortBytes := liveAllocs(t, short)
			longAllocs, longBytes := liveAllocs(t, long)
			extra := float64(long.Iterations - short.Iterations)
			allocs := (float64(longAllocs) - float64(shortAllocs)) / extra
			bytes := (float64(longBytes) - float64(shortBytes)) / extra
			setUp := float64(shortBytes) - bytes*float64(short.Iterations)
			t.Logf("%s shape: %.1f MB set-up, then %.1f KB and %.0f allocations per iteration (budget %d MB, %d KB and %d)",
				tc.name, setUp/(1<<20), bytes/(1<<10), allocs, b.setUp>>20, b.perIterBytes>>10, b.perIterAllocs)
			if setUp > float64(b.setUp) || bytes > float64(b.perIterBytes) || allocs > float64(b.perIterAllocs) {
				t.Fatalf("%s shape: %.1f MB set-up, %.1f KB and %.0f allocations per iteration, budget %d MB, %d KB and %d",
					tc.name, setUp/(1<<20), bytes/(1<<10), allocs, b.setUp>>20, b.perIterBytes>>10, b.perIterAllocs)
			}
		})
	}
}

// liveAllocs returns one live run's allocations and allocated bytes, each
// the least of two runs.
func liveAllocs(t *testing.T, cfg LiveConfig) (allocs, bytes uint64) {
	t.Helper()
	allocs, bytes = math.MaxUint64, math.MaxUint64
	for i := 0; i < 2; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunLive(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return allocs, bytes
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
