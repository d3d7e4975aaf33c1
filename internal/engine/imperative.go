package engine

import "fmt"

// forward runs worker ws's forward op for (iter, layer) in program order,
// after its forward pre-hook: the wait until the previous iteration's
// communication for this layer (or the global barrier) has completed.
func (e *Engine) forward(ws *workerState, iter, layer int) {
	run := func() {
		var onStart func()
		if layer == 0 {
			onStart = func() { e.recordFPStart(ws, iter) }
		}
		e.runCompute(ws, fmt.Sprintf("f%d@%d", layer, iter), e.fp[layer], onStart, func() {
			if layer+1 < len(e.fp) {
				e.forward(ws, iter, layer+1)
				return
			}
			e.backward(ws, iter, len(e.bp)-1)
		})
	}
	if g := e.fpGate(ws, layer, iter); g != nil {
		g.wait(run)
		return
	}
	run()
}

// backward runs the backward op for (iter, layer); its backward hook
// announces the layer's gradient before the next op is issued.
func (e *Engine) backward(ws *workerState, iter, layer int) {
	e.runCompute(ws, fmt.Sprintf("b%d@%d", layer, iter), e.bp[layer], nil, func() {
		e.gradientProduced(ws, layer, iter)
		if layer > 0 {
			e.backward(ws, iter, layer-1)
			return
		}
		if iter+1 < e.cfg.Iterations {
			e.forward(ws, iter+1, 0)
			return
		}
		e.workerFinished()
	})
}
