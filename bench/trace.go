package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's side of the boundary. Parent is the index of the span that
// caused it (-1 for a root); spans of one op share Op.
type span struct {
	Name    string `json:"name"`
	Worker  int    `json:"worker"`
	Op      int64  `json:"op"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps one worker's spans in memory. Each load-generating worker
// owns one, so the lock is only contended by that worker's own partition
// goroutines; merge joins them when the pass is over.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer(t0 time.Time, capacity int) *tracer {
	return &tracer{t0: t0, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index, for use as a parent and for end.
func (t *tracer) begin(name string, worker int, op int64, parent int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Worker: worker, Op: op, Parent: parent, StartNs: int64(now)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].EndNs = int64(now)
	t.mu.Unlock()
}

// add records a finished span in one step.
func (t *tracer) add(name string, worker int, op int64, parent int, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Worker: worker, Op: op, Parent: parent,
		StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// merge concatenates per-worker span lists, rebasing parent indexes.
func merge(ts []*tracer) []span {
	var all []span
	for _, t := range ts {
		base := len(all)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	return all
}

// durations returns the lengths, in µs, of every span with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(time.Microsecond))
		}
	}
	return out
}

// busySeconds is the time during which at least one span with the given
// name was open on the given worker: the union of the intervals, so calls
// that overlap under the credit window are not counted twice.
func busySeconds(spans []span, name string, worker int) float64 {
	var iv [][2]int64
	for _, s := range spans {
		if s.Name == name && s.Worker == worker {
			iv = append(iv, [2]int64{s.StartNs, s.EndNs})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return float64(total) / float64(time.Second)
}

// writeTrace writes the spans of one workload's traced pass to
// out/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close %s: %w", path, cerr)
		}
	}()
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans}); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return w.Flush()
}
