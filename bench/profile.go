package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
)

// profiler runs a traced pass under runtime/pprof and attributes the CPU
// samples to layers from the outside: each sample's leaf function is
// counted to the bucket of its package. Shelling out to `go tool pprof
// -top` keeps the profile decoder out of the benchmark's own code.
type profiler struct {
	dir      string // where the profile is written
	workload string
	// off skips profiling (the smoke sizing): every share then reads 0.
	off bool
}

// measure runs fn and returns cpu_share.* and runtime.gc_cpu_fraction for
// the time fn took.
func (p *profiler) measure(fn func() error) (map[string]float64, error) {
	v := map[string]float64{}
	if p.off {
		return v, fn()
	}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(p.dir, "cpu-"+p.workload+".pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	gc0, all0 := cpuSeconds()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	ferr := fn()
	pprof.StopCPUProfile()
	gc1, all1 := cpuSeconds()
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("close %s: %w", path, err)
	}
	if ferr != nil {
		return nil, ferr
	}
	if all1 > all0 {
		v["runtime.gc_cpu_fraction"] = (gc1 - gc0) / (all1 - all0)
	}
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=100000", "-nodefraction=0", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -top %s: %w", path, err)
	}
	for bucket, share := range cpuShares(out) {
		v["cpu_share."+bucket] = share
	}
	return v, nil
}

// cpuSeconds reads the runtime's own CPU accounting: seconds spent in the
// garbage collector and in total (GOMAXPROCS-seconds, idle included).
func cpuSeconds() (gc, all float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// cpuShares sums the flat% column of `pprof -top` per bucket, as a share
// of all samples. Lines look like
//
//	0.52s 20.55% 20.55%      0.52s 20.55%  internal/runtime/syscall.Syscall6
func cpuShares(top []byte) map[string]float64 {
	shares := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(top))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		shares[bucketOf(f[5])] += pct / 100
	}
	return shares
}

// bucketOf maps a function's full name to its layer: the repo's own
// internal package, the Go runtime, the socket path (syscall, poller,
// net), or other.
func bucketOf(fn string) string {
	// The package path ends at the first dot after the last slash.
	pkg := fn
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "bytescheduler/internal/"); ok {
		switch rest {
		case "core", "netps", "netar", "runner", "sim", "engine", "network", "ps":
			return rest
		}
		return "other"
	}
	switch {
	case pkg == "syscall", pkg == "net", pkg == "os", pkg == "internal/poll",
		strings.HasSuffix(pkg, "runtime/syscall"), strings.HasSuffix(pkg, "runtime/internal/syscall"):
		return "syscall"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"),
		pkg == "internal/bytealg", pkg == "internal/abi", pkg == "sync", pkg == "sync/atomic":
		return "runtime"
	}
	return "other"
}
