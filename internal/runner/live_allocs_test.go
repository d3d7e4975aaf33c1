package runner

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"bytescheduler/internal/core"
)

// TestLiveSteadyStateAllocs holds the live PS path, on the benchmark's
// live_ps shape (two workers, a 3.875 MB rear-heavy model in 256 KB
// partitions under a 1 MB credit), to budgets for what a run allocates
// once and what each further iteration adds. It fits bytes = setUp +
// perIter · iterations through a 16- and a 32-iteration run, each the
// least of two. Set-up holds the workers' slabs, the sums the server's
// completed log retains (it fills within the first 16 iterations) and
// those of the aggregations in flight, so it grows with how far the
// workers' iterations overlap, which the race detector's slowdown widens.
// Without the detector it measured 37.5 MB of set-up, then 20-65 KB and
// about 350 allocations per iteration; with it, 55-57 MB, 5-90 KB and 370
// (49 MB and 77 MB of set-up while pushes were encoded into buffers of
// their own, the aggregate was encoded from its sum, and each pull's
// response landed in a fresh read buffer). The byte budget per iteration
// is loose because one sum more or less alive at the end of either run
// moves it by 16 KB; a 256 KB buffer per partition that stops being
// recycled costs 4 MB per iteration, and one that stops being read in
// place or shared costs megabytes of set-up. The allocation budget is
// about 15 % over the measured count: an allocation or two per call, such
// as a timer per push, adds 32 to 64.
func TestLiveSteadyStateAllocs(t *testing.T) {
	setUpBudget, perIterBytes, perIterAllocs := 42<<20, 96<<10, 400
	if raceEnabled() {
		setUpBudget, perIterBytes, perIterAllocs = 64<<20, 160<<10, 430
	}
	cfg := LiveConfig{
		Backend:         LiveBackendPS,
		Workers:         2,
		LayerBytes:      []int64{128 << 10, 256 << 10, 512 << 10, 1 << 20, 1 << 20, 1 << 20},
		Policy:          core.ByteScheduler(256<<10, 1<<20),
		Warmup:          1,
		ForwardCompute:  2 * time.Millisecond,
		BackwardCompute: 200 * time.Microsecond,
	}
	short, long := cfg, cfg
	short.Iterations, long.Iterations = 16, 32
	shortAllocs, shortBytes := liveAllocs(t, short)
	longAllocs, longBytes := liveAllocs(t, long)
	extra := float64(long.Iterations - short.Iterations)
	allocs := (float64(longAllocs) - float64(shortAllocs)) / extra
	bytes := (float64(longBytes) - float64(shortBytes)) / extra
	setUp := float64(shortBytes) - bytes*float64(short.Iterations)
	t.Logf("live_ps shape: %.1f MB set-up, then %.1f KB and %.0f allocations per iteration (budget %d MB, %d KB and %d)",
		setUp/(1<<20), bytes/(1<<10), allocs, setUpBudget>>20, perIterBytes>>10, perIterAllocs)
	if setUp > float64(setUpBudget) || bytes > float64(perIterBytes) || allocs > float64(perIterAllocs) {
		t.Fatalf("live_ps shape: %.1f MB set-up, %.1f KB and %.0f allocations per iteration, budget %d MB, %d KB and %d",
			setUp/(1<<20), bytes/(1<<10), allocs, setUpBudget>>20, perIterBytes>>10, perIterAllocs)
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
