package engine

import "fmt"

// op is one worker's compute op for one (pass, layer), made once and reused
// every iteration. A worker issues its ops one at a time in program order,
// and layer l's gradient of iteration t is synchronized before its backward
// op of iteration t+1 is issued (the forward op between them waits for it),
// so a record is never pending twice. Its callbacks are bound once and the
// backward op is the sim.Handler that announces its gradient: an op
// allocates nothing, and formats its trace name only when a trace is on.
type op struct {
	e           *Engine
	ws          *workerState
	layer, iter int
	backward    bool
	startAt     float64
	// submit, started and finished are run, onStart and onDone bound once;
	// synced is the backward op's communication-done callback.
	submit, started, finished, synced func()
}

// newOps returns ws's forward ops, then its backward ops, layer by layer.
func newOps(e *Engine, ws *workerState, layers int) []op {
	ops := make([]op, 2*layers)
	for i := range ops {
		o := &ops[i]
		o.e, o.ws, o.layer, o.backward = e, ws, i%layers, i >= layers
		o.submit, o.started, o.finished, o.synced = o.run, o.onStart, o.onDone, o.commDone
	}
	return ops
}

// forward runs worker ws's forward op for (iter, layer) in program order,
// after its forward pre-hook: the wait until the previous iteration's
// communication for this layer (or the global barrier) has completed.
func (e *Engine) forward(ws *workerState, iter, layer int) {
	o := &ws.ops[layer]
	o.iter = iter
	if g := e.fpGate(ws, layer, iter); g != nil {
		g.wait(o.submit)
		return
	}
	o.run()
}

// backward runs the backward op for (iter, layer); its backward hook
// announces the layer's gradient before the next op is issued.
func (e *Engine) backward(ws *workerState, iter, layer int) {
	o := &ws.ops[len(e.fp)+layer]
	o.iter = iter
	o.run()
}

// run submits the op to the worker's GPU with its jittered duration.
func (o *op) run() {
	dur := o.e.fp
	if o.backward {
		dur = o.e.bp
	}
	o.ws.gpu.Submit(o.e.jittered(dur[o.layer]), o.started, o.finished)
}

func (o *op) onStart() {
	o.startAt = o.e.simNow()
	if !o.backward && o.layer == 0 {
		o.e.recordFPStart(o.ws, o.iter)
	}
}

// onDone records the op's span and issues the worker's next op; a backward
// op first hands its gradient to the communication hook.
func (o *op) onDone() {
	e, ws, iter, layer := o.e, o.ws, o.iter, o.layer
	if e.cfg.Trace != nil {
		pass := 'f'
		if o.backward {
			pass = 'b'
		}
		e.cfg.Trace.Add(ws.gpu.Name(), fmt.Sprintf("%c%d@%d", pass, layer, iter), o.startAt, e.simNow())
	}
	switch {
	case !o.backward && layer+1 < len(e.fp):
		e.forward(ws, iter, layer+1)
	case !o.backward:
		e.backward(ws, iter, len(e.bp)-1)
	default:
		e.gradientProduced(o)
		if layer > 0 {
			e.backward(ws, iter, layer-1)
		} else if iter+1 < e.cfg.Iterations {
			e.forward(ws, iter+1, 0)
		} else {
			e.workerFinished()
		}
	}
}

// Fire implements sim.Handler: the backward op's gradient, locally
// aggregated, is announced to the communication hook.
func (o *op) Fire(int) {
	o.e.hook.GradientReady(o.ws.id, o.layer, o.iter, o.synced)
}

func (o *op) commDone() { o.e.commDone(o.ws, o.layer, o.iter) }
