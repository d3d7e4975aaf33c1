package main

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bytescheduler/internal/cluster"
	"bytescheduler/internal/compress"
	"bytescheduler/internal/core"
	"bytescheduler/internal/model"
	"bytescheduler/internal/network"
	"bytescheduler/internal/runner"
	"bytescheduler/internal/sim"
	"bytescheduler/internal/tensor"
)

// Floors are what this box does with no program under test in the way;
// probes are single layers driven with a null load. Each is a small loop
// of about sz.probe. Their errors are environmental (loopback refused), so
// a floor that cannot run reads 0 instead of failing the workload.

// echoServer accepts conns connections on loopback and, on each, answers
// every req-byte frame with a resp-byte frame until the peer closes.
func echoServer(conns, req, resp int) (addr string, wait func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer ln.Close()
		for i := 0; i < conns; i++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				in, out := make([]byte, req), make([]byte, resp)
				for {
					if _, err := io.ReadFull(c, in); err != nil {
						return
					}
					if _, err := c.Write(out); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), wg.Wait, nil
}

// echoClients runs conns closed-loop clients for d and returns the round
// trips they completed and the seconds they took.
func echoClients(conns, req, resp int, d time.Duration) (trips int64, secs float64) {
	addr, wait, err := echoServer(conns, req, resp)
	if err != nil {
		return 0, 1
	}
	var n atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	end := t0.Add(d)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return
			}
			defer c.Close()
			out, in := make([]byte, req), make([]byte, resp)
			for time.Now().Before(end) {
				if _, err := c.Write(out); err != nil {
					return
				}
				if _, err := io.ReadFull(c, in); err != nil {
					return
				}
				n.Add(1)
			}
		}()
	}
	wg.Wait()
	secs = time.Since(t0).Seconds()
	wait()
	return n.Load(), secs
}

// floorTCPRtt is raw loopback round trips per second at ps_serve's frame
// sizes (a 256 B payload plus header up, a short answer down) over the
// same number of connections: what netps's per-message cost is measured against.
func floorTCPRtt(d time.Duration) float64 {
	trips, secs := echoClients(serveClients, 300, 40, d)
	return float64(trips) / secs
}

// floorTCPMBs is one connection moving one live partition (256 KB) up and
// an 8-byte ack down, in MB/s of payload: the bulk path's floor.
func floorTCPMBs(d time.Duration) float64 {
	trips, secs := echoClients(1, livePartition, 8, d)
	return float64(trips) * livePartition / 1e6 / secs
}

// floorCompute is the live workloads' iteration with the communication
// removed: the same sleeps, so timer overshoot on this box is included.
func floorCompute(layers int, d time.Duration) float64 {
	var ms []float64
	for end := time.Now().Add(d); time.Now().Before(end) || len(ms) < 3; {
		t0 := time.Now()
		for l := 0; l < layers; l++ {
			time.Sleep(forwardCompute)
		}
		for l := 0; l < layers; l++ {
			time.Sleep(backwardCompute)
		}
		ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return median(ms)
}

// probeAsyncNullSub is the AsyncScheduler's cost per partition when the
// transport is free: 1 MB tasks cut into four partitions whose start
// function completes at once, one task in flight at a time. µs per sub.
func probeAsyncNullSub(d time.Duration) float64 {
	s := core.NewAsync(core.ByteScheduler(livePartition, liveCredit))
	defer s.Shutdown()
	finished := make(chan struct{}, 1)
	subs := 0
	t0 := time.Now()
	for end := t0.Add(d); time.Now().Before(end); subs += 4 {
		t := &core.Task{
			Tensor:     tensor.Tensor{Layer: subs % 16, Name: "w", Bytes: 4 * livePartition},
			StartErr:   func(_ tensor.Sub, done func(error)) { done(nil) },
			OnFinished: func() { finished <- struct{}{} },
		}
		if s.Enqueue(t) != nil || s.NotifyReady(t) != nil {
			return 0
		}
		<-finished
	}
	return float64(time.Since(t0)) / float64(time.Microsecond) / float64(subs)
}

// probeSyncNullSub is the same for the synchronous core.Scheduler the
// simulator drives inline. ns per sub.
func probeSyncNullSub(d time.Duration) float64 {
	s := core.New(core.ByteScheduler(160<<10, 640<<10))
	start := func(_ tensor.Sub, done func()) { done() }
	subs := 0
	t0 := time.Now()
	for end := t0.Add(d); time.Now().Before(end); {
		for i := 0; i < 256; i++ {
			t := &core.Task{Tensor: tensor.Tensor{Layer: i % 16, Name: "w", Bytes: 640 << 10}, Start: start}
			s.Enqueue(t)
			s.NotifyReady(t)
			subs += 4
		}
	}
	return float64(time.Since(t0)) / float64(subs)
}

// probeSimNullEvent is the event engine alone: a chain of no-op events,
// each scheduling the next. ns per event.
func probeSimNullEvent(d time.Duration) float64 {
	events := 0
	t0 := time.Now()
	for end := t0.Add(d); time.Now().Before(end); {
		eng := sim.New()
		left := 1 << 14
		var tick func()
		tick = func() {
			if left--; left > 0 {
				eng.Schedule(1e-6, tick)
			}
		}
		eng.Schedule(0, tick)
		eng.Run()
		events += 1 << 14
	}
	return float64(time.Since(t0)) / float64(events)
}

// probeAllReduceTrial is sim_ps's model on the simulator's other
// architecture: analytic ring all-reduce over RDMA at 100 Gbps. ms.
func probeAllReduceTrial(m *model.Model, seed int64) (float64, error) {
	cfg := simConfig(m, seed)
	cfg.Arch, cfg.Transport, cfg.BandwidthGbps = runner.AllReduce, network.RDMA(), 100
	var ms []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := runner.Run(cfg); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return median(ms), nil
}

// probeClusterScenario is one 400-job fair-share cluster scenario through
// runner.Config.Cluster: the fluid model above the same zoo. ms.
func probeClusterScenario(seed int64) (float64, error) {
	t0 := time.Now()
	_, err := runner.Run(runner.Config{Cluster: &cluster.Scenario{Jobs: 400, Fair: true, Seed: seed}})
	return float64(time.Since(t0)) / float64(time.Millisecond), err
}

// probeCodecs times each wire codec on 64 K floats with reused buffers.
// No workload compresses on the wire, so nothing here explains an
// end-to-end number yet; it catches a codec change at its own layer.
func probeCodecs(d time.Duration, v map[string]float64) {
	const n = 64 << 10
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i%1024) / 7
	}
	topk, err := compress.TopKCodec(0.01)
	if err != nil {
		return
	}
	perFloat := func(fn func()) float64 {
		reps := 0
		t0 := time.Now()
		for end := t0.Add(d / 4); time.Now().Before(end); reps++ {
			fn()
		}
		return float64(time.Since(t0)) / float64(reps) / n
	}
	var buf []byte
	for _, c := range []struct {
		name  string
		codec compress.Codec
	}{{"fp16", compress.FP16Codec()}, {"int8", compress.Int8Codec()}, {"topk", topk}} {
		v["compress."+c.name+"_encode_ns_per_float"] = perFloat(func() { buf = c.codec.AppendEncode(buf[:0], vals) })
	}
	fp16 := compress.FP16Codec()
	payload := fp16.AppendEncode(nil, vals)
	var dst []float32
	var derr error
	ns := perFloat(func() { dst, derr = fp16.AppendDecode(dst[:0], payload, n) })
	if derr == nil {
		v["compress.fp16_decode_ns_per_float"] = ns
	}
}
