// Package plugin implements the framework plugins of the paper (§5): the
// shim between a framework engine's hooks and the ByteScheduler Core, per
// gradient-synchronization architecture.
//
// A plugin owns the Core scheduler(s) and the communication substrate
// bindings. It receives engine.CommHook callbacks (gradient ready), wraps
// each layer tensor into a core.Task (the unified CommTask abstraction),
// and opens the engine's dependency gates when the synchronized parameters
// are available — the Dependency Proxy contract.
//
// Framework flavors run the same engine executor and differ only in
// barrier behavior (Figure 3):
//
//   - MXNet: native per-layer dependencies.
//   - TensorFlow: an inter-iteration global barrier; enabling
//     ByteScheduler rewrites the graph to per-layer out-of-engine
//     dependencies (crossing the barrier, §3.4).
//   - PyTorch: a barrier-like training loop; the plugin uses backward
//     hooks and forward pre-hooks, crossing the barrier the same way.
package plugin

import (
	"fmt"
	"strings"

	"bytescheduler/internal/core"
	"bytescheduler/internal/engine"
	"bytescheduler/internal/tensor"
)

// Framework identifies the simulated training framework.
type Framework int

const (
	// MXNet has no global barrier.
	MXNet Framework = iota
	// TensorFlow has a global barrier.
	TensorFlow
	// PyTorch has a global barrier.
	PyTorch
)

// String returns the framework name.
func (f Framework) String() string {
	switch f {
	case MXNet:
		return "MXNet"
	case TensorFlow:
		return "TensorFlow"
	case PyTorch:
		return "PyTorch"
	}
	return fmt.Sprintf("Framework(%d)", int(f))
}

// FrameworkByName parses a framework name (case-insensitive).
func FrameworkByName(name string) (Framework, error) {
	switch strings.ToLower(name) {
	case "mxnet":
		return MXNet, nil
	case "tensorflow", "tf":
		return TensorFlow, nil
	case "pytorch", "torch":
		return PyTorch, nil
	}
	return 0, fmt.Errorf("plugin: unknown framework %q", name)
}

// hasGlobalBarrier reports whether the vanilla framework inserts an
// inter-iteration barrier (Figure 3).
func (f Framework) hasGlobalBarrier() bool {
	return f == TensorFlow || f == PyTorch
}

// DependencyMode returns the engine gating for this framework, given
// whether ByteScheduler is enabled. ByteScheduler always uses per-layer
// dependencies: for barrier frameworks it replaces the barrier with
// layer-wise out-of-engine dependencies.
func (f Framework) DependencyMode(scheduled bool) engine.DependencyMode {
	if scheduled || !f.hasGlobalBarrier() {
		return engine.PerLayer
	}
	return engine.GlobalBarrier
}

// partitions keeps each tensor's partitions at a scheduler's current unit,
// shared by every worker, iteration and direction (core.EnqueueSubs only
// reads them) until the unit changes; under a per-layer PartitionFn each
// call partitions afresh, as Enqueue does. A unit change within a run cuts
// new slices, as tasks in flight still read the old ones; the first call
// after a reset, when nothing reads them, re-cuts them in place, so a kept
// world run at another unit allocates nothing for its partitions. The zero
// value is ready to use.
type partitions struct {
	unit  int64
	subs  map[tensor.Tensor][]tensor.Sub
	reset bool // since the last call: nothing reads subs
}

// of returns t partitioned under s's policy.
func (c *partitions) of(s *core.Scheduler, t tensor.Tensor) []tensor.Sub {
	pol := s.Policy()
	if pol.PartitionFn != nil {
		return tensor.Partition(t, pol.PartitionFn(t))
	}
	switch {
	case c.subs == nil || pol.PartitionUnit != c.unit && !c.reset:
		c.subs = map[tensor.Tensor][]tensor.Sub{}
	case pol.PartitionUnit != c.unit:
		for tt, subs := range c.subs {
			c.subs[tt] = tensor.AppendPartition(subs[:0], tt, pol.PartitionUnit)
		}
	}
	c.unit, c.reset = pol.PartitionUnit, false
	subs, ok := c.subs[t]
	if !ok {
		subs = tensor.Partition(t, c.unit)
		c.subs[t] = subs
	}
	return subs
}
