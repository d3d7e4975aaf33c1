package main

import (
	"runtime"
	"syscall"
	"time"
)

// usage is a point-in-time reading of what the process has consumed.
type usage struct {
	at    time.Time
	cpu   time.Duration // user+sys, getrusage
	alloc uint64        // runtime.MemStats.TotalAlloc, bytes
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{at: time.Now(), cpu: tv(ru.Utime) + tv(ru.Stime), alloc: ms.TotalAlloc}
}

// calibSink keeps the calibration loop's result live so the compiler
// cannot drop the loop.
var calibSink uint64

// calibrate runs a fixed single-threaded integer spin (about 0.3 s on the
// 2-core reference box) and returns how long it took in ms. The work never
// changes, so a change in the reading is the host, not the program.
func calibrate(spins int) float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < spins; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return float64(time.Since(t0)) / float64(time.Millisecond)
}
