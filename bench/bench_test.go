package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json these tests hold the code
// to.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricDef                  `json:"end_to_end"`
	PerLayer  []metricDef                  `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

type resultLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return r
}

// TestSmokeEmitsEveryName runs every workload at the smoke sizing, both
// passes, and checks that exactly the workload and metric names of
// BENCHMARK.json come out, each with its unit.
func TestSmokeEmitsEveryName(t *testing.T) {
	b := readBenchmarkJSON(t)
	var stdout, stderr bytes.Buffer
	if code := run(options{seed: 1, seconds: 20, smoke: true, out: t.TempDir()}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run exited %d\n%s", code, stderr.String())
	}
	r := lastLine(t, stdout.String())
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("smoke run: correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	defs := append(append([]metricDef(nil), b.EndToEnd...), b.PerLayer...)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || !name.MatchString(w.Name) {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].name)
		}
		for _, d := range defs {
			if !name.MatchString(d.Name) {
				t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.Name)
			}
			m, ok := r.Metrics[w.Name+"/"+d.Name]
			if !ok {
				t.Errorf("%s: metric %s not emitted", w.Name, d.Name)
			} else if m.Unit == "" || m.Unit != d.Unit {
				t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, d.Name, m.Unit, d.Unit)
			}
		}
	}
	if want := len(b.Workloads) * len(defs); len(r.Metrics) != want {
		t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(r.Metrics), want)
	}
}

// TestTablesMatchBenchmarkJSON holds name, unit and direction of the two
// metric tables to BENCHMARK.json, in order.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, c := range []struct {
		what       string
		code, file []metricDef
	}{{"end_to_end", endToEnd, b.EndToEnd}, {"per_layer", perLayer, b.PerLayer}} {
		if len(c.code) != len(c.file) {
			t.Fatalf("%s: %d metrics in the code, %d in BENCHMARK.json", c.what, len(c.code), len(c.file))
		}
		for i := range c.code {
			if c.code[i] != c.file[i] {
				t.Errorf("%s[%d]: code %+v, BENCHMARK.json %+v", c.what, i, c.code[i], c.file[i])
			}
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 95); err != nil || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", v, err)
	}
	if _, err := percentile(xs[:199], 95); err == nil {
		t.Error("p95 of 199 samples has 9 beyond it and was not refused")
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Error("p99 of 200 samples has 2 beyond it and was not refused")
	}
	if v, err := percentile(xs[:3], 50); err != nil || v != 2 {
		t.Errorf("p50 of 1..3 = %v, %v; want 2", v, err)
	}
}

// TestWrongSubCountFails proves the partition-count check bites: told to
// expect one iteration's partitions too many, the command exits non-zero
// and the result line says incorrect.
func TestWrongSubCountFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(options{workload: "live_ps", trace: "0", seed: 1, seconds: 20, smoke: true, skewIters: 1, out: t.TempDir()}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("run with a wrong expected partition count exited 0")
	}
	if r := lastLine(t, stdout.String()); r.Correct || r.Failed == 0 {
		t.Errorf("result line: correct=%v failed=%d, want incorrect with a failed op", r.Correct, r.Failed)
	}
	if !strings.Contains(stderr.String(), "scheduler counters") {
		t.Errorf("stderr does not name the failed check:\n%s", stderr.String())
	}
}

func TestInputsKeepTotalAndRange(t *testing.T) {
	var base int64
	for _, b := range baseLayers {
		base += b
	}
	differ := false
	for seed := int64(1); seed <= 50; seed++ {
		in := makeInputs(seed)
		var total int64
		for l, b := range in.layers {
			total += b
			if d := b - baseLayers[l]; d > baseLayers[l]/8 || -d > baseLayers[l]/8 || b%(4<<10) != 0 {
				t.Errorf("seed %d layer %d: %d bytes is outside ±12.5 %% of %d or off the 4 KB grid", seed, l, b, baseLayers[l])
			}
			differ = differ || b != baseLayers[l]
		}
		if total != base {
			t.Errorf("seed %d: layers total %d, want %d", seed, total, base)
		}
		if again := makeInputs(seed); !equalInt64s(again.layers, in.layers) || !equalFloats(again.payload[1], in.payload[1]) {
			t.Errorf("seed %d: inputs differ between two calls", seed)
		}
	}
	if !differ {
		t.Error("no seed perturbed any layer")
	}
}

func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
