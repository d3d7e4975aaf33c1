package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bytescheduler/internal/runner"
)

// defaults returns run options for a small, fast experiment, overridden per
// test.
func defaults() options {
	return options{
		Model: "VGG16", Framework: "mxnet", Arch: "ps", Transport: "rdma",
		Policy: "bytescheduler", BW: 100, PartMB: 2, CreditMB: 8,
		GPUs: 8, Iters: 6, Warmup: 1, Seed: 1,
	}
}

func TestRunPolicies(t *testing.T) {
	for _, policy := range []string{"fifo", "p3", "tictac", "bytescheduler", "bs"} {
		o := defaults()
		o.Policy = policy
		if err := run(o); err != nil {
			t.Errorf("policy %s: %v", policy, err)
		}
	}
}

func TestRunArchAndTransportAliases(t *testing.T) {
	for _, arch := range []string{"ps", "nccl", "allreduce", "all-reduce"} {
		o := defaults()
		o.Arch = arch
		if err := run(o); err != nil {
			t.Errorf("arch %s: %v", arch, err)
		}
	}
	o := defaults()
	o.Transport = "tcp"
	o.Framework = "pytorch"
	o.Arch = "nccl"
	if err := run(o); err != nil {
		t.Errorf("pytorch nccl tcp: %v", err)
	}
}

func TestRunTune(t *testing.T) {
	o := defaults()
	o.TuneN = 4
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunGanttAndChromeTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	o := defaults()
	o.Iters = 3
	o.Gantt = true
	o.ChromeOut = out
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[0] != '[' {
		t.Fatalf("chrome trace looks wrong: %q...", data[:min(20, len(data))])
	}
}

func TestRunMetricsFlag(t *testing.T) {
	o := defaults()
	o.Iters = 3
	o.Metrics = true
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunHTTPMetricsEndpoint(t *testing.T) {
	o := defaults()
	o.Iters = 3
	o.HTTP = "127.0.0.1:0"
	var addr string
	o.serveStarted = func(a string) { addr = a }
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		t.Fatal("server never started")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "core_subs_started_total") {
		t.Fatalf("/metrics missing scheduler counters:\n%s", body)
	}
	if !strings.Contains(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("Content-Type = %q", resp.Header.Get("Content-Type"))
	}
	pp, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status = %d", pp.StatusCode)
	}
}

func TestRunLiveFusedCodec(t *testing.T) {
	o := defaults()
	o.Backend = "ps"
	o.LiveWorkers = 2
	o.LiveLayers = "16,1,1,1,8"
	o.LiveCompute = 100 * time.Microsecond
	o.Iters = 3
	o.Warmup = 0
	o.FuseTheta = 4 << 10
	o.Codec = "fp16"
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	// The default policy on the ring is priority + credit under rank 0's
	// scheduler: fusion runs there too.
	o.Backend, o.LiveWorkers = "ring", 3
	if err := run(o); err != nil {
		t.Fatalf("ring: %v", err)
	}
	o.Codec = "zstd"
	if err := run(o); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestRunErrors(t *testing.T) {
	for name, mutate := range map[string]func(*options){
		"model":     func(o *options) { o.Model = "LeNet-0" },
		"framework": func(o *options) { o.Framework = "caffe" },
		"arch":      func(o *options) { o.Arch = "mesh" },
		"transport": func(o *options) { o.Transport = "roce9" },
		"policy":    func(o *options) { o.Policy = "lifo" },
		"gpus":      func(o *options) { o.GPUs = 3 },
	} {
		o := defaults()
		mutate(&o)
		if err := run(o); err == nil {
			t.Errorf("%s: invalid value accepted", name)
		}
	}
}

// TestLiveBandwidthFlag: -bw set on a live run becomes the shaped link
// every worker sends through; left unset, live runs stay on plain
// loopback (its default is the simulator's 100 Gbps).
func TestLiveBandwidthFlag(t *testing.T) {
	o := defaults()
	o.Backend, o.LiveWorkers, o.LiveLayers = "ring", 2, "32,16"
	cfg, err := liveConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Shape) != 0 {
		t.Fatalf("unset -bw shaped the live link: %+v", cfg.Shape)
	}
	o.BW, o.bwSet = 2, true
	if cfg, err = liveConfig(o); err != nil {
		t.Fatal(err)
	}
	if want := []runner.LinkShape{{Gbps: 2}}; !reflect.DeepEqual(cfg.Shape, want) {
		t.Fatalf("-bw 2 gave Shape %+v, want %+v", cfg.Shape, want)
	}
	o.Iters, o.Warmup, o.LiveCompute = 3, 0, 100*time.Microsecond
	if err := run(o); err != nil {
		t.Fatalf("shaped live run: %v", err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestRunLiveAutoTune(t *testing.T) {
	o := defaults()
	o.Backend = "ps"
	o.LiveWorkers = 2
	o.LiveLayers = "32,16,8"
	o.LiveCompute = 100 * time.Microsecond
	o.Iters = 6
	o.Warmup = 1
	o.AutoTune = true
	o.AutoTuneTrials = 2
	o.AutoTuneDwell = 2
	o.AutoTuneSuggester = "random"
	// An autotuned run lasts one whole search episode plus three steady
	// windows at one iteration of pin skew, whatever -iters says.
	cfg, err := liveConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.AutoTune.BudgetIters(3, 1); cfg.Iterations != want {
		t.Fatalf("autotuned run length %d, want BudgetIters(3, 1) = %d", cfg.Iterations, want)
	}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	o.FuseTheta = 4 << 10
	o.LiveLayers = "32,1,1,1,8"
	if err := run(o); err != nil {
		t.Fatalf("autotune with fusion: %v", err)
	}
	o.AutoTuneSuggester = "annealing"
	if err := run(o); err == nil {
		t.Fatal("unknown suggester accepted")
	}
	o.AutoTuneSuggester = "bo"
	o.Policy = "fifo"
	if err := run(o); err == nil {
		t.Fatal("autotune over an unscheduled policy accepted")
	}
}
