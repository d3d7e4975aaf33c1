//go:build race

package experiments

// determinismSuiteIDs names the experiments the determinism test suite
// verifies under the race detector. Running every experiment twice (serial
// and parallel, both with cold caches) is prohibitively slow with -race
// instrumentation, so this build covers a representative subset chosen to
// exercise every engine path while staying sub-second per run: the
// cheapest figure (FIG2), a sweep-grid fan-out (FIG4B), the batched-BO
// tuner path (FIG9), single-run ablations (ABL-PRIORITY, EXT-LAYERWISE),
// a mixed cacheable/reference grid (EXT-BALANCE), the custom-priority
// uncacheable path (THM1), the multi-job cluster scenario path
// (EXT-CLUSTER), and the online tuner on virtual time (EXT-ONLINE). The !race build runs the full registry (minus the
// heavyweight figures, which benchsuite -measure-serial verifies at run
// time).
func determinismSuiteIDs() []string {
	return []string{"FIG2", "FIG4B", "FIG9", "ABL-PRIORITY", "EXT-LAYERWISE", "EXT-BALANCE", "EXT-CLUSTER", "EXT-ONLINE", "THM1"}
}
