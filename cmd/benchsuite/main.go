// Command benchsuite regenerates every table and figure of the paper's
// evaluation as text tables (see DESIGN.md's per-experiment index).
//
// Trials execute on the internal/sweep engine: a bounded worker pool
// (default GOMAXPROCS, capped with -parallel) with a memoizing result
// cache shared by all experiments in the invocation. Experiments
// themselves also run concurrently, but their tables are printed in
// stable registry order, and all results are bitwise-identical to a
// serial run at the same seed.
//
// Examples:
//
//	benchsuite                    # run everything, quick sizing
//	benchsuite -full              # full grids (slower)
//	benchsuite -run FIG10,TAB1    # selected experiments
//	benchsuite -parallel 4        # cap the trial worker pool
//	benchsuite -json bench.json   # machine-readable perf snapshot
//	benchsuite -json bench.json -measure-serial  # include serial wall + speedup
//	benchsuite -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"bytescheduler/internal/experiments"
	"bytescheduler/internal/sweep"
)

// expResult is one experiment's outcome from a suite pass.
type expResult struct {
	tab     experiments.Table
	err     error
	seconds float64
}

// expJSON is the per-experiment slice of the -json snapshot: the metrics
// and the rendered rows, so a snapshot diff shows a moved row too.
type expJSON struct {
	ID          string             `json:"id"`
	Title       string             `json:"title"`
	WallSeconds float64            `json:"wall_seconds"`
	Metrics     map[string]float64 `json:"metrics"`
	Rows        [][]string         `json:"rows"`
}

// snapshot is the -json perf snapshot: per-experiment metrics and
// wall-clock plus engine cache statistics.
type snapshot struct {
	GeneratedAt       string    `json:"generated_at"`
	GoVersion         string    `json:"go_version"`
	GOARCH            string    `json:"goarch"`
	Cores             int       `json:"cores"`
	Workers           int       `json:"workers"`
	Quick             bool      `json:"quick"`
	Seed              int64     `json:"seed"`
	WallSeconds       float64   `json:"wall_seconds"`
	SerialWallSeconds float64   `json:"serial_wall_seconds,omitempty"`
	SpeedupX          float64   `json:"speedup_x,omitempty"`
	Trials            uint64    `json:"sweep_trials_total"`
	CacheHits         uint64    `json:"sweep_cache_hits_total"`
	Experiments       []expJSON `json:"experiments"`
}

// runSuite executes the selected experiments on eng. With concurrent=true
// the experiments run as goroutines (the engine's pool still bounds total
// trial parallelism); results are always returned in selection order.
// skipLive leaves live (wall-clock) experiments as zero results — used by
// the serial reference pass, whose purpose is bitwise comparison, which
// live measurements cannot satisfy.
func runSuite(selected []experiments.Experiment, opts experiments.Opts, concurrent, skipLive bool) []expResult {
	results := make([]expResult, len(selected))
	if !concurrent {
		for i, e := range selected {
			if skipLive && e.Live() {
				continue
			}
			start := time.Now()
			tab, err := e.Run(opts)
			results[i] = expResult{tab: tab, err: err, seconds: time.Since(start).Seconds()}
		}
		return results
	}
	done := make([]chan struct{}, len(selected))
	for i := range selected {
		if skipLive && selected[i].Live() {
			continue
		}
		done[i] = make(chan struct{})
		go func(i int) {
			defer close(done[i])
			start := time.Now()
			tab, err := selected[i].Run(opts)
			results[i] = expResult{tab: tab, err: err, seconds: time.Since(start).Seconds()}
		}(i)
	}
	for i := range done {
		if done[i] != nil {
			<-done[i]
		}
	}
	return results
}

func main() {
	var (
		runIDs   = flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
		full     = flag.Bool("full", false, "full paper-scale grids instead of quick sizing")
		seed     = flag.Int64("seed", 1, "random seed")
		list     = flag.Bool("list", false, "list experiments and exit")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"trial worker-pool size (1 = serial; results are identical at any value)")
		jsonPath = flag.String("json", "",
			"write a machine-readable perf snapshot (per-experiment metrics, wall-clock, cache stats) to this path")
		measureSerial = flag.Bool("measure-serial", false,
			"also run the suite serially (workers=1, cold cache) and report the parallel speedup; implies -json evidence")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-14s %s\n", e.ID, e.Desc)
		}
		return
	}

	var selected []experiments.Experiment
	if strings.EqualFold(*runIDs, "all") {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchsuite:", err)
				os.Exit(1)
			}
			selected = append(selected, e)
		}
	}

	// Optional serial reference pass: fresh 1-worker engine with a cold
	// private cache, experiments strictly sequential.
	var serialWall float64
	var serialResults []expResult
	if *measureSerial {
		serialOpts := experiments.Opts{Quick: !*full, Seed: *seed,
			Engine: sweep.New(sweep.WithWorkers(1))}
		start := time.Now()
		serialResults = runSuite(selected, serialOpts, false, true)
		serialWall = time.Since(start).Seconds()
		for i, r := range serialResults {
			if r.err != nil {
				fmt.Fprintf(os.Stderr, "benchsuite: serial %s: %v\n", selected[i].ID, r.err)
				os.Exit(1)
			}
		}
	}

	eng := sweep.New(sweep.WithWorkers(*parallel))
	opts := experiments.Opts{Quick: !*full, Seed: *seed, Engine: eng}
	start := time.Now()
	results := runSuite(selected, opts, eng.Workers() > 1, false)
	wall := time.Since(start).Seconds()

	for i, r := range results {
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: %s: %v\n", selected[i].ID, r.err)
			os.Exit(1)
		}
		fmt.Print(r.tab.Format())
		fmt.Printf("(%s in %.1fs)\n\n", selected[i].ID, r.seconds)
	}

	trials, hits := eng.Stats()
	fmt.Printf("suite: %d experiments in %.1fs, %d workers, %d trials (%d cache hits)\n",
		len(selected), wall, eng.Workers(), trials, hits)
	if *measureSerial {
		// The parallel pass must reproduce the serial pass exactly.
		// Live experiments are wall-clock measurements and are excluded
		// from the serial pass and the bitwise comparison.
		for i := range results {
			if selected[i].Live() {
				continue
			}
			if !metricsEqual(serialResults[i].tab.Metrics, results[i].tab.Metrics) {
				fmt.Fprintf(os.Stderr, "benchsuite: %s: parallel metrics diverge from serial run\n", selected[i].ID)
				os.Exit(1)
			}
		}
		for _, e := range selected {
			if e.Live() {
				fmt.Printf("serial reference: %s skipped (live wall-clock experiment, not bitwise-reproducible)\n", e.ID)
			}
		}
		fmt.Printf("serial reference: %.1fs -> speedup %.2fx (metrics bitwise-identical)\n",
			serialWall, serialWall/wall)
	}

	if *jsonPath != "" {
		snap := snapshot{
			GeneratedAt:       time.Now().UTC().Format(time.RFC3339),
			GoVersion:         runtime.Version(),
			GOARCH:            runtime.GOARCH,
			Cores:             runtime.NumCPU(),
			Workers:           eng.Workers(),
			Quick:             !*full,
			Seed:              *seed,
			WallSeconds:       wall,
			SerialWallSeconds: serialWall,
			Trials:            trials,
			CacheHits:         hits,
		}
		if serialWall > 0 && wall > 0 {
			snap.SpeedupX = serialWall / wall
		}
		for i, r := range results {
			snap.Experiments = append(snap.Experiments, expJSON{
				ID:          r.tab.ID,
				Title:       r.tab.Title,
				WallSeconds: results[i].seconds,
				Metrics:     r.tab.Metrics,
				Rows:        r.tab.Rows,
			})
		}
		buf, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite: json:", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

// metricsEqual compares two metric maps for exact (bitwise) equality.
func metricsEqual(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || v != w {
			return false
		}
	}
	return true
}
