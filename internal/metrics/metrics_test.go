package metrics

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryAndHandlesAreInert(t *testing.T) {
	var r *Registry
	c, g, h := r.Counter("c"), r.Gauge("g"), r.Histogram("h")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	g.Inc()
	g.Dec()
	g.SetMax(9)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read zero")
	}
	if r.Names() != nil {
		t.Fatal("nil registry Names must be nil")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry export: %v %q", err, buf.String())
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if r.Counter("requests_total") != c {
		t.Fatal("same name must return same handle")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	g.Inc()
	g.Dec()
	if g.Value() != 5 {
		t.Fatalf("gauge = %d", g.Value())
	}
	g.SetMax(3) // lower: no-op
	g.SetMax(11)
	if g.Value() != 11 {
		t.Fatalf("SetMax = %d", g.Value())
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", 0.001, 0.01, 0.1, 1)
	for i := 0; i < 100; i++ {
		h.Observe(0.005) // second bucket
	}
	h.Observe(10) // +Inf bucket
	h.Observe(math.NaN())
	if h.Count() != 101 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-10.5) > 1e-9 {
		t.Fatalf("Sum = %v", got)
	}
	s := r.Snapshot().Histograms["lat"]
	if len(s.Counts) != 5 {
		t.Fatalf("buckets = %d", len(s.Counts))
	}
	if q := s.Quantile(0.5); q < 0.001 || q > 0.01 {
		t.Fatalf("P50 = %v, want within (0.001, 0.01]", q)
	}
	if q := s.Quantile(0.999); q < 1 {
		t.Fatalf("P99.9 = %v, want tail bucket", q)
	}
	if !math.IsNaN((HistogramSnapshot{}).Quantile(0.5)) {
		t.Fatal("empty histogram quantile must be NaN")
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d")
	h.Observe(0.5)
	s := r.Snapshot().Histograms["d"]
	if len(s.Bounds) != len(defBuckets()) {
		t.Fatalf("bounds = %d, want %d", len(s.Bounds), len(defBuckets()))
	}
	if !sortedAscending(s.Bounds) {
		t.Fatalf("default bounds not ascending: %v", s.Bounds)
	}
}

func sortedAscending(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return false
		}
	}
	return true
}

func TestPrometheusExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(3)
	r.Gauge("b_depth").Set(-4)
	h := r.Histogram("c_seconds", 0.5, 2)
	h.Observe(0.1)
	h.Observe(1)
	h.Observe(5)
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE a_total counter\na_total 3\n",
		"# TYPE b_depth gauge\nb_depth -4\n",
		"# TYPE c_seconds histogram\n",
		`c_seconds_bucket{le="0.5"} 1`,
		`c_seconds_bucket{le="2"} 2`,
		`c_seconds_bucket{le="+Inf"} 3`,
		"c_seconds_sum 6.1",
		"c_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
}

func TestHandlerAndString(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var got [64]byte
	n, _ := resp.Body.Read(got[:])
	if !strings.Contains(string(got[:n]), "hits_total 1") {
		t.Fatalf("handler body: %q", got[:n])
	}
	// String() is valid JSON (expvar.Var contract).
	var v map[string]any
	if err := json.Unmarshal([]byte(r.String()), &v); err != nil {
		t.Fatalf("String() not JSON: %v", err)
	}
}

// TestRegistryConcurrent hammers every metric type from many goroutines
// while snapshots and exports run; run under -race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines, iters = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Gauge("hw").SetMax(int64(i))
				r.Histogram("h").Observe(float64(i) * 1e-4)
				if i%64 == 0 {
					_ = r.Snapshot()
					_ = r.Names()
					var sink strings.Builder
					_ = r.WritePrometheus(&sink)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != goroutines*iters {
		t.Fatalf("counter = %d, want %d", got, goroutines*iters)
	}
	if got := r.Gauge("g").Value(); got != goroutines*iters {
		t.Fatalf("gauge = %d, want %d", got, goroutines*iters)
	}
	h := r.Histogram("h")
	if h.Count() != goroutines*iters {
		t.Fatalf("histogram count = %d", h.Count())
	}
	// The CAS-updated sum must equal the exact arithmetic series total.
	want := float64(goroutines) * float64(iters-1) * float64(iters) / 2 * 1e-4
	if math.Abs(h.Sum()-want) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v", h.Sum(), want)
	}
}
