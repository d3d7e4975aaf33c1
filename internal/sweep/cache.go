package sweep

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"

	"bytescheduler/internal/core"
	"bytescheduler/internal/runner"
)

// Cache memoizes trial results by canonical configuration key. It is safe
// for concurrent use and single-flight: the first requester of a key
// computes, later requesters (even concurrent ones) wait and share the
// outcome. A Cache may be shared between engines, which is how a serial and
// a parallel engine can be compared without recomputing.
type Cache struct {
	mu sync.Mutex
	m  map[string]*cacheEntry
}

type cacheEntry struct {
	done chan struct{}
	res  runner.Result
	err  error
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{m: make(map[string]*cacheEntry)}
}

// claim returns the entry for key. owner=true means the caller must
// compute the result and close ent.done; owner=false means another
// goroutine owns (or owned) the computation and the caller should wait on
// ent.done.
func (c *Cache) claim(key string) (ent *cacheEntry, owner bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent, ok := c.m[key]; ok {
		return ent, false
	}
	ent = &cacheEntry{done: make(chan struct{})}
	c.m[key] = ent
	return ent, true
}

// layerPriorityPtr identifies the paper's canonical priority function;
// policies using any other non-nil PriorityFn are behaviorally opaque (a
// func cannot be hashed) and therefore uncacheable.
var layerPriorityPtr = reflect.ValueOf(core.PriorityFn(core.LayerPriority)).Pointer()

// Key returns the canonical cache key for cfg and whether cfg is cacheable
// at all. A configuration is cacheable when every behavior-relevant field
// can be folded into the hash: scalar knobs, the transport profile, the
// full model shape, placement, faults, and a policy whose priority is nil
// (FIFO) or the canonical LayerPriority. Configurations with custom
// priority or per-tensor partition functions, or with attached Trace /
// Metrics sinks (side effects a cached result would skip), are not
// cacheable.
func Key(cfg runner.Config) (string, bool) {
	if cfg.Trace != nil || cfg.Metrics != nil {
		return "", false
	}
	if cfg.Cluster != nil {
		// Cluster scenarios are pure values: the scenario scalars are the
		// whole behavior, so they key on their own and the single-job
		// fields below are irrelevant.
		s := *cfg.Cluster
		h := fnv.New64a()
		fmt.Fprintf(h, "cluster=%d,%d,%d,%g,%g,%d,%g,%t,%d|",
			s.Jobs, s.Nodes, s.SlotsPerNode, s.LinkGbps, s.MaxDelayMs,
			s.CreditPool, s.ArrivalWindowSec, s.Fair, s.Seed)
		var sum [8]byte
		return string(h.Sum(sum[:0])), true
	}
	p := cfg.Policy
	if p.PartitionFn != nil {
		return "", false
	}
	prio := 0
	if p.Priority != nil {
		if reflect.ValueOf(p.Priority).Pointer() != layerPriorityPtr {
			return "", false
		}
		prio = 1
	}
	if cfg.Model == nil {
		return "", false
	}
	h := fnv.New64a()
	w := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }

	w("fw=%d|arch=%d|bw=%g|gpus=%d|sched=%t|async=%t|coll=%d|place=%d|iters=%d|warm=%d|jit=%g|seed=%d|",
		int(cfg.Framework), int(cfg.Arch), cfg.BandwidthGbps, cfg.GPUs, cfg.Scheduled,
		cfg.Async, int(cfg.Collective), int(cfg.Placement),
		cfg.Iterations, cfg.Warmup, cfg.Jitter, cfg.Seed)
	t := cfg.Transport
	w("tp=%s,%g,%g,%g,%g,%g,%g,%g,%g|", t.Name, t.MsgOverhead, t.PipelinedOverhead,
		t.AckDelay, t.Efficiency, t.CollectiveLaunch, t.HopLatency, t.MaxGoodputGbps, t.CollectiveMaxGbps)
	w("pol=%s,%d,%d,%d,%d,%d|", p.Name, p.PartitionUnit, p.CreditBytes, p.MaxRetries, prio, int(cfg.Priority))
	if cfg.Compression != nil {
		c := cfg.Compression
		w("comp=%s,%g|", c.Codec.Name(), c.CodecBytesPerSec)
	}
	if cfg.Faults != nil {
		f := cfg.Faults
		w("faults=%d,%g,%g,%g,%g|", f.Seed, f.DropProb, f.RetransmitDelay, f.SpikeProb, f.SpikeSec)
		for _, o := range f.Outages {
			w("out=%d,%g,%g|", o.Node, o.Start, o.Duration)
		}
	}
	m := cfg.Model
	w("model=%s,%d,%s,%g,%g,%d|", m.Name, m.BatchPerGPU, m.SampleUnit, m.PerGPUSpeed, m.FPFraction, len(m.Layers))
	for _, l := range m.Layers {
		w("L%d,%s,%g:", l.Index, l.Name, l.ComputeWeight)
		for _, tn := range l.Tensors {
			w("%s,%d,%d;", tn.Name, tn.Layer, tn.Bytes)
		}
	}
	var sum [8]byte
	return string(h.Sum(sum[:0])), true
}
