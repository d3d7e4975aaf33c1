// Regenerates the committed fuzz corpus seeds for codec-bearing and
// cross-iteration frames. The committed files keep the codec envelope
// (codec id + original length) and the pipelined two-iterations-in-flight
// wire shapes regression-tested by plain `go test` even where fuzzing
// never runs.
//
// Refresh after a framing change with:
//
//	GEN_FUZZ_CORPUS=1 go test ./internal/netps/ -run 'TestGenerate.*Corpus'
package netps

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestGenerateCodecCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz seeds")
	}
	for i, m := range codecSeeds() {
		writeCorpus(t, "FuzzDecodeMessage", fmt.Sprintf("codec%02d", i), frame(t, m))
	}
}

// TestGenerateCrossIterCorpus writes the cross-iteration seeds: frames and
// a stream mixing iteration i and i+1 for the same tensor key, the wire
// shape cross-iteration pipelining puts on one connection.
func TestGenerateCrossIterCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz seeds")
	}
	for i, m := range xiterSeeds() {
		writeCorpus(t, "FuzzDecodeMessage", fmt.Sprintf("xiter%02d", i), frame(t, m))
	}
	writeCorpus(t, "FuzzDecodeBatch", "xiter00", stream(t, xiterBatch()...))
}

// writeCorpus writes one seed in the go-fuzz corpus file format.
func writeCorpus(t *testing.T, target, name string, data []byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", string(data))
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}
