// Command bench is the repository's one benchmark: four workloads, the
// end-to-end metrics a user of the scheduler sees, and a traced pass that
// attributes time to layers from outside their public functions. It drives
// the repo only through exported identifiers of internal packages (the
// pinned surface is listed in README.md), checks outputs on every run, and
// prints every metric by name with its unit.
//
//	go run -C bench .                                  # every workload, both passes
//	sh bench/run.sh --workload live_ps --seed 3 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object (correct, attempted,
// failed, metrics); the full result with an env header is written to
// out/result.json and the spans to out/trace-<workload>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type options struct {
	workload string // "" selects all
	seed     int64
	seconds  int
	trace    string // "0" end-to-end only, "1" per-layer only, "" both
	smoke    bool
	out      string
	// skewIters reaches sizing.skewIters; no flag sets it.
	skewIters int
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all four)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds per workload and pass, split into three rounds")
	fs.StringVar(&o.trace, "trace", "", "0: end-to-end metrics only; 1: traced pass only; default both")
	fs.BoolVar(&o.smoke, "smoke", false, "sub-second sizing that only proves every metric is emitted")
	fs.StringVar(&o.out, "out", "out", "directory for result.json, traces and profiles")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.seconds < 1 || (o.trace != "" && o.trace != "0" && o.trace != "1") || fs.NArg() > 0 {
		return o, fmt.Errorf("bench: bad arguments %q", args)
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	os.Exit(run(o, os.Stdout, os.Stderr))
}

// value is one reported metric.
type value struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	// Samples is how many ops the number was computed over; RoundSpread
	// is (max-min)/median of the per-round values. End-to-end only.
	Samples     int     `json:"samples,omitempty"`
	RoundSpread float64 `json:"round_spread,omitempty"`
}

// report is everything measured on one workload.
type report struct {
	Name      string `json:"name"`
	Why       string `json:"why"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// CalibMs is the median host calibration around this workload's
	// rounds; WeatherReruns counts rounds re-run because theirs was off.
	CalibMs       float64 `json:"host.calib_ms"`
	WeatherReruns int     `json:"weather_reruns"`
	EndToEnd      []value `json:"end_to_end,omitempty"`
	PerLayer      []value `json:"per_layer,omitempty"`
}

type env struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Date       string `json:"date"`
}

func run(o options, stdout, stderr io.Writer) int {
	var selected []workload
	for _, w := range workloads {
		if o.workload == "" || o.workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	sz := newSizing(o.seconds, o.smoke)
	sz.skewIters = o.skewIters
	in := makeInputs(o.seed)
	reports := make([]report, len(selected))
	for i, w := range selected {
		reports[i] = report{Name: w.name, Why: w.why, Correct: true}
	}

	if o.trace != "1" {
		endToEndPass(selected, reports, in, sz, stderr)
	}
	if o.trace != "0" {
		for i, w := range selected {
			prof := &profiler{dir: o.out, workload: w.name, off: sz.smoke}
			vals, spans, err := w.traced(in, sz, prof)
			if err == nil {
				err = writeTrace(o.out, w.name, spans)
			}
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s traced pass: %v\n", w.name, err)
				reports[i].Correct = false
				reports[i].Attempted++
				reports[i].Failed++
			} else if o.trace == "1" {
				// The traced pass's ops are its root spans: iterations,
				// push+pull cycles, trials.
				for _, s := range spans {
					if s.Parent < 0 {
						reports[i].Attempted++
					}
				}
			}
			for _, d := range perLayer {
				reports[i].PerLayer = append(reports[i].PerLayer, value{Name: d.Name, Value: vals[d.Name], Unit: d.Unit, Better: d.Better})
			}
		}
	}

	e := env{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit(), Seed: o.seed, Seconds: o.seconds, Date: time.Now().UTC().Format(time.RFC3339)}
	printReports(stdout, e, reports)
	if err := writeResult(o.out, e, reports); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return printResultLine(stdout, reports)
}

// endToEndPass runs sz.rounds untraced rounds of every selected workload,
// interleaved (A B C D A B C D ...) so a noisy minute on a shared host
// hits every workload a little instead of one workload entirely, with a
// host calibration before and after each round. Per workload, the round
// whose calibration is furthest from the pass's median is re-run once if
// it is more than 15 % off: one re-run, not one per round, so that a host
// that stays slow costs a third more time and not twice.
func endToEndPass(selected []workload, reports []report, in inputs, sz sizing, stderr io.Writer) {
	rounds := make([][]round, len(selected))
	guarded := func(w workload) round {
		if sz.smoke {
			return w.run(in, sz)
		}
		before := calibrate(sz.calibSpins)
		r := w.run(in, sz)
		r.calib = [2]float64{before, calibrate(sz.calibSpins)}
		return r
	}
	var calibs []float64
	for n := 0; n < sz.rounds; n++ {
		for i, w := range selected {
			r := guarded(w)
			rounds[i] = append(rounds[i], r)
			calibs = append(calibs, r.calib[0], r.calib[1])
		}
	}
	ref := median(calibs)
	off := func(r round) float64 {
		return math.Max(math.Abs(r.calib[0]-ref), math.Abs(r.calib[1]-ref))
	}
	for i, w := range selected {
		worst := 0
		for n := range rounds[i] {
			if off(rounds[i][n]) > off(rounds[i][worst]) {
				worst = n
			}
		}
		if r := rounds[i][worst]; off(r) > 0.15*ref {
			fmt.Fprintf(stderr, "bench: %s round %d ran in different host weather (calibration %.1f and %.1f ms, the pass's median %.1f), re-running it once\n",
				w.name, worst, r.calib[0], r.calib[1], ref)
			rounds[i][worst] = guarded(w)
			reports[i].WeatherReruns++
		}
		summarize(&reports[i], rounds[i], sz.smoke, stderr)
	}
}

// summarize turns a workload's rounds into its end-to-end values. Timing
// percentiles are taken over the measured ops of all rounds together (a
// round alone is too short for ten samples beyond p95 on every workload);
// rates and costs are the median of the per-round values.
func summarize(rep *report, rounds []round, smoke bool, stderr io.Writer) {
	var all, p50s, rate, cpu, alloc, setup, calibs []float64
	for n, r := range rounds {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		calibs = append(calibs, r.calib[0], r.calib[1])
		if r.err != nil {
			fmt.Fprintf(stderr, "bench: %s round %d: %v\n", rep.Name, n, r.err)
			rep.Correct = false
		}
		if len(r.samplesMs) == 0 {
			continue
		}
		all = append(all, r.samplesMs...)
		p50s = append(p50s, median(r.samplesMs))
		rate = append(rate, float64(len(r.samplesMs))/r.measuredS)
		cpu = append(cpu, r.cpuMs)
		alloc = append(alloc, r.allocKB)
		setup = append(setup, r.setupS)
	}
	rep.CalibMs = median(calibs)
	p95, err := percentile(all, 95)
	if err != nil {
		// Expected of the smoke sizing; a real run that gets here is
		// undersized (-seconds below 20) and must not pass as measured.
		fmt.Fprintf(stderr, "bench: %s: %v; op_ms_p95 reads 0\n", rep.Name, err)
		rep.Correct = rep.Correct && smoke
	}
	byName := map[string][]float64{"op_ms_p50": p50s, "ops_per_s": rate, "cpu_ms_per_op": cpu, "alloc_kb_per_op": alloc, "setup_s": setup}
	for _, d := range endToEnd {
		v := value{Name: d.Name, Unit: d.Unit, Better: d.Better, Samples: len(all)}
		if d.Name == "op_ms_p95" {
			v.Value = p95
		} else {
			v.Value, v.RoundSpread = median(byName[d.Name]), spread(byName[d.Name])
		}
		rep.EndToEnd = append(rep.EndToEnd, v)
	}
}

func printReports(w io.Writer, e env, reports []report) {
	fmt.Fprintf(w, "bench: %d cores, GOMAXPROCS %d, %s, commit %s, seed %d, %d s per pass\n",
		e.Cores, e.GOMAXPROCS, e.Go, e.Commit, e.Seed, e.Seconds)
	for _, r := range reports {
		fmt.Fprintf(w, "\n%s  correct=%v attempted=%d failed=%d fail_ratio=%.6f host.calib_ms=%.1f weather_reruns=%d\n",
			r.Name, r.Correct, r.Attempted, r.Failed, float64(r.Failed)/math.Max(1, float64(r.Attempted)), r.CalibMs, r.WeatherReruns)
		for _, v := range r.EndToEnd {
			fmt.Fprintf(w, "  %-34s %14.4f %-5s %s is better, n=%d, rounds differ by %.1f %%\n",
				v.Name, v.Value, v.Unit, v.Better, v.Samples, 100*v.RoundSpread)
		}
		for _, v := range r.PerLayer {
			fmt.Fprintf(w, "  %-34s %14.4f %-5s %s is better\n", v.Name, v.Value, v.Unit, v.Better)
		}
	}
}

func writeResult(dir string, e env, reports []report) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "result.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close %s: %w", path, cerr)
		}
	}()
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		Env       env      `json:"env"`
		Workloads []report `json:"workloads"`
	}{e, reports})
}

// printResultLine prints the driver's contract line and returns the exit
// code: non-zero when any correctness check failed. With one workload the
// metrics carry their bare names; with several, "<workload>/<name>".
func printResultLine(w io.Writer, reports []report) int {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: true, Metrics: map[string]mv{}}
	for _, r := range reports {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		prefix := ""
		if len(reports) > 1 {
			prefix = r.Name + "/"
		}
		for _, v := range append(append([]value(nil), r.EndToEnd...), r.PerLayer...) {
			line.Metrics[prefix+v.Name] = mv{v.Value, v.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		// A NaN or Inf value: a measurement divided by zero somewhere.
		fmt.Fprintf(w, "bench: result line: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", b)
	if !line.Correct || line.Failed > 0 {
		return 1
	}
	return 0
}

// commit is the checkout's short commit hash, or "unknown" outside git.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if s := strings.TrimSpace(string(out)); err == nil && s != "" {
		return s
	}
	return "unknown"
}
