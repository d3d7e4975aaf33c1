package sim

import "slices"

// Server models a resource that serves one job at a time in FIFO order, such
// as a GPU compute stream or a NIC transmit queue. Jobs are non-preemptible
// once started, which is exactly the property that makes communication
// scheduling matter: a large tensor that has entered the queue blocks
// higher-priority tensors behind it.
type Server struct {
	eng      *Engine
	name     string
	busy     bool
	queue    []job
	serving  job // the job in service; the server is its completion event
	busyTime Time
	served   uint64
}

type job struct {
	duration Time
	onStart  func()
	onDone   func()
}

// NewServer returns an idle server attached to eng. The name is used only
// for diagnostics.
func NewServer(eng *Engine, name string) *Server {
	return &Server{eng: eng, name: name}
}

// Reset returns the server to its state after NewServer — idle, nothing
// queued, no busy time — keeping its queue's capacity. A job in service or
// queued is dropped; the engine it was attached to must have been reset too.
func (s *Server) Reset() {
	clear(s.queue)
	*s = Server{eng: s.eng, name: s.name, queue: s.queue[:0]}
}

// Name returns the diagnostic name given at construction.
func (s *Server) Name() string { return s.name }

// Served returns the number of jobs completed so far.
func (s *Server) Served() uint64 { return s.served }

// BusyTime returns the cumulative time the server has spent serving jobs.
func (s *Server) BusyTime() Time { return s.busyTime }

// Submit enqueues a job of the given duration. onStart runs when service
// begins (may be immediately, inline) and onDone when it completes. Either
// callback may be nil.
func (s *Server) Submit(duration Time, onStart, onDone func()) {
	if duration < 0 {
		panic("sim: negative job duration")
	}
	s.queue = append(s.queue, job{duration: duration, onStart: onStart, onDone: onDone})
	s.dispatch()
}

func (s *Server) dispatch() {
	if s.busy || len(s.queue) == 0 {
		return
	}
	j := s.queue[0]
	// Delete shifts and zeroes the vacated slot: a reslice would keep the
	// served job's callbacks reachable behind the head.
	s.queue = slices.Delete(s.queue, 0, 1)
	s.serving = j
	s.busy = true
	s.busyTime += j.duration
	if j.onStart != nil {
		j.onStart()
	}
	s.eng.After(j.duration, s, 0)
}

// Fire implements Handler: the job in service completes.
func (s *Server) Fire(int) {
	onDone := s.serving.onDone
	s.serving = job{}
	s.busy = false
	s.served++
	if onDone != nil {
		onDone()
	}
	s.dispatch()
}
