package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric, its unit and which direction is better. The
// two tables below are the benchmark's vocabulary: BENCHMARK.json lists the
// same names (bench_test.go holds the two in step) and later issues refer to
// metrics by these names only.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the numbers a user of the system sees; every one is defined
// on every workload and measured with tracing off. fail_ratio is printed
// and written to the result file but is not in BENCHMARK.json: it is 0 on
// every healthy run, and the driver's bounds are shares of a non-zero
// median (it reads failures from the result line's failed/attempted).
var endToEnd = []metricDef{
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_p95", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"alloc_kb_per_op", "KB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the traced-pass numbers. A metric a workload does not
// exercise reads 0 there (no calls into that layer), which is itself the
// "should move nothing on this workload" prediction made checkable.
var perLayer = []metricDef{
	{"core.subs_per_op", "count", "lower"},
	{"core.preemptions_per_op", "count", "higher"},
	{"core.admit_wait_ms_per_op", "ms", "lower"},
	{"core.admit_wait_us_p50", "us", "lower"},
	{"core.admit_wait_us_p95", "us", "lower"},
	{"core.async_null_sub_us", "us", "lower"},
	{"core.sync_null_sub_ns", "ns", "lower"},

	{"netps.push_us_p50", "us", "lower"},
	{"netps.push_us_p95", "us", "lower"},
	{"netps.push_us_p99", "us", "lower"},
	{"netps.pull_us_p50", "us", "lower"},
	{"netps.pull_us_p95", "us", "lower"},
	{"netps.pull_us_p99", "us", "lower"},
	{"netps.calls_per_op", "count", "lower"},
	{"netps.push_mb_s", "MB/s", "higher"},
	{"netps.server_goroutines", "count", "lower"},
	{"netps.outstanding_after_drain", "count", "lower"},
	{"netps.rtt_over_floor_x", "x", "lower"},
	{"netps.bytes_over_floor_x", "x", "lower"},

	{"netar.allreduce_us_p50", "us", "lower"},
	{"netar.allreduce_us_p95", "us", "lower"},
	{"netar.calls_per_op", "count", "lower"},
	{"netar.mb_s", "MB/s", "higher"},
	{"netar.bytes_over_floor_x", "x", "lower"},

	{"floor.tcp_rtt_per_s", "1/s", "higher"},
	{"floor.tcp_mb_s", "MB/s", "higher"},
	{"floor.compute_ms", "ms", "lower"},

	{"runner.exposed_comm_ms", "ms", "lower"},
	{"runner.fwd_stall_ms_per_op", "ms", "lower"},
	{"runner.vs_driver_x", "x", "lower"},
	{"runner.sched_speedup_x", "x", "higher"},
	{"runner.obs_overhead_x", "x", "lower"},
	{"runner.subs_per_op", "count", "lower"},
	{"runner.us_per_sub", "us", "lower"},
	{"sim.null_event_ns", "ns", "lower"},
	{"allreduce.trial_ms", "ms", "lower"},
	{"cluster.scenario_ms", "ms", "lower"},

	{"compress.fp16_encode_ns_per_float", "ns", "lower"},
	{"compress.fp16_decode_ns_per_float", "ns", "lower"},
	{"compress.int8_encode_ns_per_float", "ns", "lower"},
	{"compress.topk_encode_ns_per_float", "ns", "lower"},

	{"runtime.gc_cpu_fraction", "ratio", "lower"},
	{"cpu_share.core", "ratio", "lower"},
	{"cpu_share.netps", "ratio", "lower"},
	{"cpu_share.netar", "ratio", "lower"},
	{"cpu_share.runner", "ratio", "lower"},
	{"cpu_share.sim", "ratio", "lower"},
	{"cpu_share.engine", "ratio", "lower"},
	{"cpu_share.network", "ratio", "lower"},
	{"cpu_share.ps", "ratio", "lower"},
	{"cpu_share.runtime", "ratio", "lower"},
	{"cpu_share.syscall", "ratio", "lower"},
	{"cpu_share.other", "ratio", "lower"},
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule. A percentile above the median is refused unless at
// least ten samples lie beyond it: with fewer, the number is one or two
// outliers, not a property of the system.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if p > 50 && n-rank < 10 {
		return 0, fmt.Errorf("percentile p%g of %d samples has %d beyond it, need 10", p, n, n-rank)
	}
	return s[rank-1], nil
}

// median returns the middle value (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// spread is (max-min)/median of the round values, printed beside each
// metric so a reader sees how far the rounds of one run disagreed.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (hi - lo) / m
}
