package experiments

import "testing"

// TestTensorFusionMarkedLive pins the registry contract: EXT-FUSION runs
// on the real network stack, so the determinism harnesses must skip its
// bitwise comparison.
func TestTensorFusionMarkedLive(t *testing.T) {
	e, err := ByID("EXT-FUSION")
	if err != nil {
		t.Fatal(err)
	}
	if !e.Live() {
		t.Fatal("EXT-FUSION not marked live")
	}
}

// TestTensorFusionShape runs the live fusion experiment end-to-end and
// checks the structure of what it exists to show: on a small-tensor
// long-tail profile fusing collapses both the scheduler sub count and the
// PS request count, and the fp16 leg roughly halves the pushed bytes. The
// wall-clock speed-up is logged, not gated (see TestLiveRingShape).
func TestTensorFusionShape(t *testing.T) {
	tab := runExp(t, ExtTensorFusion)
	for _, m := range []string{"unfused_iter_ms", "fused_iter_ms", "fp16_iter_ms"} {
		if tab.Metrics[m] <= 0 {
			t.Fatalf("%s = %v, want > 0", m, tab.Metrics[m])
		}
	}
	t.Logf("fused vs unfused: %+.1f%% (fp16: %+.1f%%)", tab.Metrics["fusion_speedup_pct"], tab.Metrics["fp16_speedup_pct"])
	if f, u := tab.Metrics["fused_subs"], tab.Metrics["unfused_subs"]; f >= u {
		t.Fatalf("fusion did not reduce scheduler subs: %v >= %v", f, u)
	}
	if f, u := tab.Metrics["fused_requests"], tab.Metrics["unfused_requests"]; f >= u {
		t.Fatalf("fusion did not reduce PS requests: %v >= %v", f, u)
	}
	// fp16 payloads are exactly half the fp32 bytes; headers and key
	// strings are counted elsewhere, so the pushed-byte ratio should sit
	// right at 0.5.
	if r := tab.Metrics["fp16_wire_ratio"]; r < 0.45 || r > 0.6 {
		t.Fatalf("fp16 wire ratio = %.3f, want ~0.5", r)
	}
}
