// Package sweep is the deterministic parallel trial-execution engine
// behind every evaluation artifact in this repository: the Figure 2/4/9–14
// sweeps, Table 1, the robustness and load-balance extensions, and the
// §4.3 auto-tuning search all execute their independent simulation trials
// through one Engine.
//
// The engine provides three things:
//
//   - A bounded worker pool (Map) that fans independent trials out across
//     cores. Results are collected by index, never by completion order, so
//     a parallel sweep is bitwise-identical to its serial execution — the
//     simulator itself is deterministic, and per-trial randomness comes
//     from the trial configuration's own Seed, never from a shared sequence.
//
//   - A memoizing result cache (Run) keyed by a canonical hash of the full
//     trial configuration (model, transport, bandwidth, GPUs, policy,
//     placement, faults, ...). Bayesian-optimization re-probes, overlapping
//     grid points, repeated baselines, and warm re-invocations are computed
//     once. Configurations whose behavior cannot be captured canonically
//     (custom priority/partition functions, attached trace or metrics
//     sinks) bypass the cache.
//
//   - Lifetime trial and cache-hit counts (Stats), which benchsuite
//     prints after a run.
//
// Concurrency contract: Map may be called from many goroutines at once
// (the pool bounds global parallelism), but a trial body must never call
// Map on the same engine — nested fan-out can exhaust the pool's slots and
// deadlock. Run is always safe inside a trial body: it executes inline on
// the calling goroutine.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"

	"bytescheduler/internal/runner"
)

// Engine executes independent simulation trials on a bounded worker pool
// with a memoizing result cache.
type Engine struct {
	workers int
	sem     chan struct{}
	// cache is the engine's own; a test may assign one engine's cache to
	// another to share results.
	cache *Cache

	trials, hits atomic.Uint64
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers sets the worker-pool size. Values below 1 select serial
// execution; the default is GOMAXPROCS.
func WithWorkers(n int) Option { return func(e *Engine) { e.workers = n } }

// New constructs an engine.
func New(opts ...Option) *Engine {
	e := &Engine{workers: runtime.GOMAXPROCS(0), cache: NewCache()}
	for _, o := range opts {
		o(e)
	}
	if e.workers < 1 {
		e.workers = 1
	}
	e.sem = make(chan struct{}, e.workers)
	return e
}

var (
	defaultOnce   sync.Once
	defaultEngine *Engine
)

// Default returns the process-wide engine: GOMAXPROCS workers and a shared
// cache, so independent experiment invocations in one process (tests,
// benchmarks) reuse each other's trials.
func Default() *Engine {
	defaultOnce.Do(func() { defaultEngine = New() })
	return defaultEngine
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// Stats returns the engine's lifetime trial and cache-hit counts.
func (e *Engine) Stats() (trials, cacheHits uint64) {
	return e.trials.Load(), e.hits.Load()
}

// Map runs fn(0) .. fn(n-1) across the worker pool and returns the error
// of the lowest-indexed failing trial (nil if all succeeded). Trials may
// complete in any order; callers must write results into index-addressed
// slots so assembly is order-independent. With a 1-worker pool, trials run
// inline in index order — the serial reference the determinism suite
// compares against.
//
// Map may be called concurrently from many goroutines; the pool bounds
// total parallelism. Trial bodies must not call Map on the same engine
// (see the package comment), but may call Run freely.
func (e *Engine) Map(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if e.workers <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		e.sem <- struct{}{} // bound in-flight trials (and goroutines)
		wg.Add(1)
		go func(i int) {
			defer func() {
				<-e.sem
				wg.Done()
			}()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Run executes one simulated training trial, memoized: a canonical
// configuration is computed at most once per cache, concurrent requests
// for the same configuration coalesce onto one execution, and errors are
// cached alongside results (the simulator is deterministic, so a failure
// is as reproducible as a success). Non-canonical configurations (custom
// policy functions, attached Trace/Metrics sinks) always execute.
//
// Run executes inline on the calling goroutine — it never dispatches to
// the worker pool, so it is safe inside Map trial bodies.
func (e *Engine) Run(cfg runner.Config) (runner.Result, error) {
	e.trials.Add(1)
	key, ok := Key(cfg)
	if !ok {
		return runner.Run(cfg)
	}
	ent, owner := e.cache.claim(key)
	if !owner {
		<-ent.done
		e.hits.Add(1)
		return ent.res, ent.err
	}
	ent.res, ent.err = runner.Run(cfg)
	close(ent.done)
	return ent.res, ent.err
}
