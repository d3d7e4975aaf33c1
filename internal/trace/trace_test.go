package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Add("lane", "op", 0, 1)
	if r.Len() != 0 || r.Spans() != nil || r.Lanes() != nil {
		t.Fatal("nil recorder must be inert")
	}
}

func TestAddAndSpans(t *testing.T) {
	r := New()
	r.Add("gpu", "b", 1, 2)
	r.Add("net", "a", 0, 3)
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("Len = %d", len(spans))
	}
	if spans[0].Name != "a" || spans[1].Name != "b" {
		t.Fatalf("not sorted by start: %+v", spans)
	}
	if spans[0].Duration() != 3 {
		t.Fatalf("Duration = %v", spans[0].Duration())
	}
	lanes := r.Lanes()
	if len(lanes) != 2 || lanes[0] != "gpu" || lanes[1] != "net" {
		t.Fatalf("Lanes = %v (first-use order)", lanes)
	}
}

func TestAddBackwardsSpanClamps(t *testing.T) {
	r := New()
	r.Add("l", "ok", 0, 1)
	r.Add("l", "backwards", 2, 1) // wall/monotonic skew or a stale retry start
	if r.Len() != 2 {
		t.Fatalf("Len = %d, clamped span must still be recorded", r.Len())
	}
	if got := r.Clamped(); got != 1 {
		t.Fatalf("Clamped = %d, want 1", got)
	}
	spans := r.Spans()
	var clamped *Span
	for i := range spans {
		if spans[i].Name == "backwards" {
			clamped = &spans[i]
		}
	}
	if clamped == nil {
		t.Fatal("clamped span missing")
	}
	if clamped.Start != 2 || clamped.End != 2 || clamped.Duration() != 0 {
		t.Fatalf("clamped span = %+v, want zero duration at start", *clamped)
	}
	var nilRec *Recorder
	nilRec.Add("l", "n", 2, 1) // must stay a no-op
	if nilRec.Clamped() != 0 {
		t.Fatal("nil recorder Clamped must be 0")
	}
}

func TestChromeTrace(t *testing.T) {
	r := New()
	r.Add("gpu", "fp0", 0, 0.001)
	r.Add("net", "push", 0.001, 0.003)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var meta, spans []map[string]any
	for _, ev := range events {
		switch ev["ph"] {
		case "M":
			meta = append(meta, ev)
		case "X":
			spans = append(spans, ev)
		default:
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
	}
	if len(spans) != 2 {
		t.Fatalf("span events = %d", len(spans))
	}
	if len(meta) != 2 {
		t.Fatalf("thread_name metadata events = %d", len(meta))
	}
	if meta[0]["name"] != "thread_name" {
		t.Fatalf("metadata name = %v", meta[0]["name"])
	}
	if spans[0]["dur"].(float64) != 1000 { // 1ms in µs
		t.Fatalf("dur = %v", spans[0]["dur"])
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	r := New()
	r.Add("worker0/gpu", "fp0", 0, 0.5)
	r.Add("worker0/net", "push L01", 0.5, 1.25)
	r.Add("worker0/gpu", "bp0", 1.25, 2)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want, got := r.Spans(), back.Spans()
	if len(got) != len(want) {
		t.Fatalf("round-trip spans = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Lane != want[i].Lane || got[i].Name != want[i].Name {
			t.Fatalf("span %d = %+v, want %+v", i, got[i], want[i])
		}
		if diff := got[i].Start - want[i].Start; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("span %d start drift %v", i, diff)
		}
	}
	if bad, err := ReadChromeTrace(strings.NewReader("{not json")); err == nil {
		t.Fatalf("malformed trace accepted: %v", bad)
	}
}

func TestWallTracer(t *testing.T) {
	rec := New()
	w := NewWall(rec)
	end := w.Span("netps/c1", "push k0#1")
	end()
	w.Add("core/L00", "grad[1/1]", time.Now(), time.Now())
	if rec.Len() != 2 {
		t.Fatalf("Len = %d", rec.Len())
	}
	for _, s := range rec.Spans() {
		if s.Start < 0 || s.End < s.Start {
			t.Fatalf("bad wall span %+v", s)
		}
	}
	var nilWall *Wall
	nilWall.Span("l", "n")()
	nilWall.Add("l", "n", time.Now(), time.Now())
	if nilWall != nil {
		t.Fatal("nil Wall must be inert")
	}
	if NewWall(nil) != nil {
		t.Fatal("NewWall(nil) must be nil (no-op tracer)")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Add("lane", "op", float64(i), float64(i)+0.5)
				_ = r.Len()
				_ = r.Lanes()
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 8*200 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestGantt(t *testing.T) {
	r := New()
	r.Add("worker0/gpu", "fp", 0, 0.5)
	r.Add("worker0/net", "push", 0.5, 1.0)
	out := r.Gantt(40)
	if !strings.Contains(out, "worker0/gpu") || !strings.Contains(out, "worker0/net") {
		t.Fatalf("missing lanes:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatalf("no bars drawn:\n%s", out)
	}
	if empty := New().Gantt(40); !strings.Contains(empty, "empty") {
		t.Fatalf("empty trace rendering: %q", empty)
	}
}
