package experiments

import "testing"

// TestAutoTuneMarkedLive pins the registry contract: EXT-AUTOTUNE is
// wall-clock measurement and must be skipped by the determinism harnesses.
func TestAutoTuneMarkedLive(t *testing.T) {
	e, err := ByID("EXT-AUTOTUNE")
	if err != nil {
		t.Fatal(err)
	}
	if !e.Live() {
		t.Fatal("EXT-AUTOTUNE not marked live")
	}
}

// TestAutoTuneShape runs the closed loop end-to-end on the live PS backend
// and checks its structure: both offline references and the online run
// produced speeds, the controller probed, adopted a config in its first
// episode and logged its decisions. What EXT-AUTOTUNE exists to show — the
// controller converges near the offline-BO optimum, detects the injected
// bandwidth change and re-converges within the guard budget — is judged
// from measured wall-clock speeds (against an offline reference that is
// itself a noisy maximum), so it is logged, not gated (see
// TestLiveRingShape); internal/autotune's tests drive the same state
// machine deterministically.
func TestAutoTuneShape(t *testing.T) {
	tab := runExp(t, ExtAutoTune)
	m := tab.Metrics
	if m["offline_a_speed"] <= 0 || m["offline_b_speed"] <= 0 || m["online_a_speed"] <= 0 {
		t.Fatalf("non-positive speeds: %+v", m)
	}
	if m["decision_count"] < 1 || m["probes"] < 1 {
		t.Fatalf("controller logged %.0f decisions and %.0f probes, want some of each", m["decision_count"], m["probes"])
	}
	if m["probes"] < m["retunes"]*2 {
		t.Errorf("suspiciously few probes (%.0f) for %.0f episodes", m["probes"], m["episodes"])
	}
	t.Logf("offline optimum %.1f -> %.1f it/s across the bandwidth change; online converged to %.2f of it, re-converged to %.2f; %.0f retune(s), %.0f rollback(s) after the change, settled at end: %v",
		m["offline_a_speed"], m["offline_b_speed"], m["converge_ratio"], m["reconverge_ratio"],
		m["retunes"], m["rollbacks_post"], m["settled_at_end"] == 1)
}
