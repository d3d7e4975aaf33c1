// Regenerates the committed fuzz corpus seeds for codec-bearing and
// cross-iteration ring segments. The committed files keep the codec
// envelope (codec id + original length) and the pipelined
// two-iterations-in-flight wire shapes regression-tested by plain
// `go test` even where fuzzing never runs.
//
// Refresh after a framing change with:
//
//	GEN_FUZZ_CORPUS=1 go test ./internal/netar/ -run 'TestGenerate.*Corpus'
package netar

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
	writeCorpus(t, "codec", codecSeeds())
}

// TestGenerateCrossIterCorpus writes the cross-iteration seeds: segments
// for the same key at iteration i and i+1, the wire shape a ring with
// gradients streaming to rank 0's scheduler puts in flight at once.
func TestGenerateCrossIterCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz seeds")
	}
	writeCorpus(t, "xiter", xiterSeeds())
}

// writeCorpus writes seeds as <prefix>NN in the go-fuzz corpus file format.
func writeCorpus(t *testing.T, prefix string, seeds []message) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeFrame")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, m := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", string(frame(t, m)))
		name := filepath.Join(dir, fmt.Sprintf("%s%02d", prefix, i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
