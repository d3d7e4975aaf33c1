// Determinism and cache-correctness suite for the sweep-engine rewiring.
//
// The contract under test is the one benchsuite -measure-serial enforces at
// run time: for every registered experiment, executing on a parallel engine
// (4 workers, cold cache) produces Table.Metrics and Table.Rows
// bitwise-identical to a serial engine (1 worker, cold cache) at the same
// seed — trial order, worker interleaving, and cache hits must never leak
// into results. A second set of tests checks the memoizing cache itself: a
// warm rerun replays identical metrics while recording cache hits.
//
// The parallel run is also held, bitwise, to testdata/quick_seed1.json —
// a committed benchsuite snapshot of every non-live experiment, metrics and
// rendered rows — so a change that moves any table, even one row and no
// summary metric, shows up as a diff of that file, not only as a
// serial/parallel disagreement. A PR that means to move a table regenerates
// it (27 experiments, ~3 min) and reviews the diff:
//
//	go run ./cmd/benchsuite -parallel 1 -json internal/experiments/testdata/quick_seed1.json \
//	  -run FIG2,FIG4A,FIG4B,FIG9,FIG10,FIG11,FIG12,FIG13,FIG14,TAB1,TXT1,TXT3,ABL-CREDIT,ABL-PARTITION,ABL-PRIORITY,ABL-BARRIER,ABL-ASYNC,ABL-COLLECTIVE,EXT-ONLINE,EXT-LAYERWISE,EXT-COSCHED,EXT-COMPRESS,EXT-ZOO,EXT-FAULTS,EXT-BALANCE,EXT-CLUSTER,THM1
//
// Under -race the suite shrinks to a representative subset of experiments
// (see determinism_ids_race_test.go); without -race it covers them all.
package experiments

import (
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"testing"

	"bytescheduler/internal/sweep"
)

// heavyDeterminism names the experiments whose quick sizing still costs
// minutes per run: double-executing them inside go test would dominate the
// whole suite's wall clock. They are skipped unless DETERMINISM_FULL=1,
// which the CI bench-smoke job sets so they are held to the snapshot on
// every change; it also runs `benchsuite -measure-serial`, the same
// serial-vs-parallel bitwise check over the complete registry.
var heavyDeterminism = map[string]bool{"FIG4A": true, "FIG13": true, "FIG14": true}

// determinismExperiments resolves the build-specific ID list to concrete
// experiments (nil means every registered experiment).
func determinismExperiments(t *testing.T) []Experiment {
	t.Helper()
	ids := determinismSuiteIDs()
	if ids == nil {
		return All()
	}
	var out []Experiment
	for _, id := range ids {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

// sameMetrics compares two metric maps for exact (bitwise) equality and
// reports the first divergence; label names the two sides, reference first.
func sameMetrics(t *testing.T, label string, want, got map[string]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: metric count diverged: %d vs %d", label, len(want), len(got))
	}
	for k, v := range want {
		w, ok := got[k]
		if !ok {
			t.Fatalf("%s: metric %q missing from the second", label, k)
		}
		if v != w {
			t.Fatalf("%s: metric %q diverged: %v vs %v", label, k, v, w)
		}
	}
}

// sameRows compares two rendered tables row by row and reports the first
// divergence; label names the two sides, reference first.
func sameRows(t *testing.T, label string, want, got [][]string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: row count diverged: %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if !slices.Equal(want[i], got[i]) {
			t.Fatalf("%s: row %d diverged: %q vs %q", label, i, want[i], got[i])
		}
	}
}

// goldenTable is one experiment's entry in the committed snapshot.
type goldenTable struct {
	ID      string             `json:"id"`
	Metrics map[string]float64 `json:"metrics"`
	Rows    [][]string         `json:"rows"`
}

// goldenTables loads the committed snapshot's per-experiment metrics and
// rows (JSON float64 round-trips exactly). Floating-point results are only
// comparable on the architecture that wrote them (fused multiply-add
// differs), so elsewhere it logs and returns nil.
func goldenTables(t *testing.T) map[string]goldenTable {
	t.Helper()
	buf, err := os.ReadFile("testdata/quick_seed1.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		GOARCH      string        `json:"goarch"`
		Quick       bool          `json:"quick"`
		Seed        int64         `json:"seed"`
		Experiments []goldenTable `json:"experiments"`
	}
	if err := json.Unmarshal(buf, &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Quick || snap.Seed != 1 {
		t.Fatalf("testdata/quick_seed1.json was written with quick=%v seed=%d", snap.Quick, snap.Seed)
	}
	if snap.GOARCH != runtime.GOARCH {
		t.Logf("golden snapshot is from %s, this is %s: golden comparison skipped", snap.GOARCH, runtime.GOARCH)
		return nil
	}
	golden := make(map[string]goldenTable, len(snap.Experiments))
	for _, e := range snap.Experiments {
		golden[e.ID] = e
	}
	return golden
}

// TestParallelMatchesSerial runs each experiment twice — once on a
// 1-worker engine and once on a 4-worker engine, both with cold private
// caches — and requires bitwise-identical metrics and rows. Subtests run in
// parallel with each other: each pair of engines is private, so the only
// shared state is the scheduler/runner code under test, which is exactly
// what the race detector should see contended. The parallel run's metrics
// and rows must also equal the committed golden snapshot's.
func TestParallelMatchesSerial(t *testing.T) {
	golden := goldenTables(t)
	for _, exp := range determinismExperiments(t) {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			if exp.Live() {
				t.Skipf("%s measures the live network stack: wall-clock metrics are not bitwise-reproducible", exp.ID)
			}
			if heavyDeterminism[exp.ID] && os.Getenv("DETERMINISM_FULL") == "" {
				t.Skipf("%s costs minutes per run; set DETERMINISM_FULL=1 (CI bench-smoke does)", exp.ID)
			}
			t.Parallel()
			serial, err := exp.Run(Opts{Quick: true, Seed: 1,
				Engine: sweep.New(sweep.WithWorkers(1))})
			if err != nil {
				t.Fatal(err)
			}
			par, err := exp.Run(Opts{Quick: true, Seed: 1,
				Engine: sweep.New(sweep.WithWorkers(4))})
			if err != nil {
				t.Fatal(err)
			}
			sameMetrics(t, exp.ID+": serial vs parallel", serial.Metrics, par.Metrics)
			sameRows(t, exp.ID+": serial vs parallel", serial.Rows, par.Rows)
			if golden != nil {
				const label = ": testdata/quick_seed1.json (regenerate: see the file comment) vs parallel"
				sameMetrics(t, exp.ID+label, golden[exp.ID].Metrics, par.Metrics)
				sameRows(t, exp.ID+label, golden[exp.ID].Rows, par.Rows)
			}
		})
	}
}

// TestEngineCacheCorrectness reruns one experiment on a warm engine: the
// replayed metrics must be identical and the engine must report cache hits
// (the rerun is served from memo, not recomputed), while the cold first
// pass reports none of its trials as hits beyond intra-experiment reuse.
func TestEngineCacheCorrectness(t *testing.T) {
	exp, err := ByID("FIG2")
	if err != nil {
		t.Fatal(err)
	}
	eng := sweep.New(sweep.WithWorkers(2))
	cold, err := exp.Run(Opts{Quick: true, Seed: 1, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	trialsCold, hitsCold := eng.Stats()
	if trialsCold == 0 {
		t.Fatal("experiment ran no trials through the engine")
	}
	warm, err := exp.Run(Opts{Quick: true, Seed: 1, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	sameMetrics(t, "FIG2: cold vs warm rerun", cold.Metrics, warm.Metrics)
	trialsWarm, hitsWarm := eng.Stats()
	if hitsWarm <= hitsCold {
		t.Fatalf("warm rerun recorded no cache hits: cold %d/%d, warm %d/%d",
			trialsCold, hitsCold, trialsWarm, hitsWarm)
	}
	if got := hitsWarm - hitsCold; got != trialsWarm-trialsCold {
		t.Fatalf("warm rerun recomputed trials: %d new trials but only %d hits",
			trialsWarm-trialsCold, got)
	}
}
