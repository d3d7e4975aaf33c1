package runner

import (
	"fmt"
	"sync"

	"bytescheduler/internal/core"
	"bytescheduler/internal/netar"
	"bytescheduler/internal/tensor"
)

// ringCoord is one ring worker's part of the paper's §5 master Core: rank
// 0's scheduler is the ring's only one, and a follower's, with an empty
// policy, starts what rank 0 admits as the admission arrives. A task is
// named by its iteration and position in the pass, identical on every
// peer. A follower reports a task forward (netar.OpReady) once its own
// gradient and, past rank 1, its predecessor's report are in, so rank 0
// marks it ready only when every peer has it; each partition rank 0 starts
// is admitted forward (netar.OpAdmit) before its collective. One credit
// window, and every admitted collective has every peer's gradient: no
// credit, priority or skew can deadlock the ring.
type ringCoord struct {
	peer       *netar.Peer
	rank, size int
	sched      *core.AsyncScheduler
	hook       func(netar.Control) // tests: gradients in (OpReady) and admissions, in start order
	admitMu    sync.Mutex          // orders rank 0's admissions as hook sees them

	mu    sync.Mutex
	iter  uint32        // the pass being emitted
	next  uint16        // position of its next task
	tasks []ringEntry   // by position in a pass
	err   error         // the first failure
	dead  chan struct{} // closed with it
	fails *firstFailure // told of it, when set
}

type ringKey struct {
	iter uint32
	task uint16
}

// ringEntry is a task emitted or reported here, open on rank 0 until
// ready, on a follower until its last partition is admitted. A position
// holds one pass's task at a time: every peer's task at a position
// resolves before any peer emits the next pass's there, as its forward
// pass waits for it, so each position's entry is reused pass after pass.
type ringEntry struct {
	iter     uint32
	open     bool
	task     *core.Task // nil until emitted here
	reported bool
	admitted uint32
}

// newRingCoord installs rank's coordinator as peer's control handler.
func newRingCoord(peer *netar.Peer, rank, size int, hook func(netar.Control)) *ringCoord {
	c := &ringCoord{peer: peer, rank: rank, size: size, hook: hook, dead: make(chan struct{})}
	peer.SetControl(c.control)
	return c
}

// Enqueue registers t with rank 0's scheduler; a follower enqueues it at
// its first admission, cut as rank 0 cut it.
func (c *ringCoord) Enqueue(t *core.Task) error {
	if c.rank != 0 {
		return nil
	}
	return c.sched.Enqueue(t)
}

// NotifyReady names t by its position in its pass: its gradient is in.
func (c *ringCoord) NotifyReady(t *core.Task) error {
	lt := t.Starter.(*liveTask)
	c.mu.Lock()
	if lt.iter != c.iter {
		c.iter, c.next = lt.iter, 0
	}
	lt.task, c.next = c.next, c.next+1
	c.mu.Unlock()
	if c.hook != nil {
		c.hook(netar.Control{Op: netar.OpReady, Iter: lt.iter, Task: lt.task})
	}
	return c.fatal(c.arrive(ringKey{lt.iter, lt.task}, t))
}

// arrive records a task's gradient (t) or its predecessor's report (nil),
// which rank 1 does not wait for; whichever completes the pair acts: rank 0
// marks the task ready, a follower reports it.
func (c *ringCoord) arrive(k ringKey, t *core.Task) error {
	c.mu.Lock()
	e, err := c.entry(k)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	if t != nil {
		e.task = t
	} else {
		e.reported = true
	}
	task := e.task
	complete := task != nil && (e.reported || c.rank == 1 || c.size == 1)
	if complete && c.rank == 0 {
		e.open = false
	}
	c.mu.Unlock()
	switch {
	case !complete:
		return nil
	case c.rank == 0:
		return c.sched.NotifyReady(task)
	}
	return c.peer.SendControl(netar.Control{Op: netar.OpReady, Iter: k.iter, Task: k.task})
}

// entry returns task k's entry, opening its position's for k if none is
// open there. Another pass's entry still open there is an error. Caller
// holds c.mu.
func (c *ringCoord) entry(k ringKey) (*ringEntry, error) {
	if n := int(k.task) + 1; n > len(c.tasks) {
		c.tasks = append(c.tasks, make([]ringEntry, n-len(c.tasks))...)
	}
	e := &c.tasks[k.task]
	switch {
	case !e.open:
		*e = ringEntry{iter: k.iter, open: true}
	case e.iter != k.iter:
		return nil, fmt.Errorf("runner: ring rank %d: task %d of iteration %d arrived while iteration %d's is open", c.rank, k.task, k.iter, e.iter)
	}
	return e, nil
}

// admit sends rank 0's admission of sub, of task in pass iter, forward;
// a follower's start is already admitted.
func (c *ringCoord) admit(iter uint32, task uint16, sub tensor.Sub) error {
	if c.rank != 0 || c.size == 1 {
		return nil
	}
	var unit int64 // 0: the whole task; else partition 0's size, a later one's offset over its index
	if sub.Count > 1 {
		unit = max(sub.Bytes, sub.Offset/int64(max(sub.Index, 1)))
	}
	if unit > 1<<32-1 {
		return c.fatal(fmt.Errorf("runner: partition unit %d does not fit an admission", unit))
	}
	m := netar.Control{Op: netar.OpAdmit, Iter: iter, Task: task, Part: uint32(sub.Index), Parts: uint32(sub.Count), Unit: uint32(unit)}
	c.admitMu.Lock()
	defer c.admitMu.Unlock()
	if c.hook != nil {
		c.hook(m)
	}
	return c.fatal(c.peer.SendControl(m))
}

// control is the peer's control handler: a report arrives, and a follower
// passes an admission on and starts the partition it names. A frame it
// cannot take, or a lost link, fails the ring.
func (c *ringCoord) control(m netar.Control, err error) {
	k := ringKey{m.Iter, m.Task}
	switch {
	case err != nil:
	case m.Op == netar.OpReady && c.rank != 1:
		err = c.arrive(k, nil)
	case m.Op != netar.OpAdmit || c.rank == 0:
		err = fmt.Errorf("runner: ring rank %d got control op %d", c.rank, m.Op)
	case c.rank+1 < c.size:
		err = c.peer.SendControl(m)
	}
	if err != nil || m.Op != netar.OpAdmit {
		c.fatal(err)
		return
	}
	c.mu.Lock()
	var task *core.Task
	e, err := c.entry(k)
	if err == nil {
		if task = e.task; task == nil {
			err = fmt.Errorf("runner: ring rank %d: task %d of iteration %d admitted before it was ready here", c.rank, m.Task, m.Iter)
		}
		if e.admitted++; e.admitted == m.Parts || task == nil {
			e.open = false
		}
	}
	c.mu.Unlock()
	if err == nil {
		if c.hook != nil {
			c.hook(m)
		}
		err = c.sched.Admit(task, int64(m.Unit), int(m.Part))
	}
	c.fatal(err)
}

// fatal fails the ring on err, if any, and returns it: the first failure
// is kept, the worker stops waiting (dead), and closing the peer fails its
// collectives in flight and its neighbours' control links in turn. The
// close runs apart, as a control handler runs on the reader Close waits
// for; the run's teardown Close waits for it.
func (c *ringCoord) fatal(err error) error {
	if err == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
		if c.fails != nil {
			c.fails.saw(c.rank)
		}
		close(c.dead)
		go c.peer.Close()
	}
	return err
}
