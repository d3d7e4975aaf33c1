// Regenerates the committed fuzz corpus seeds for codec-bearing and
// cross-iteration frames and for multi-frame streams. The committed files
// keep the codec envelope (codec id + original length), the pipelined
// two-iterations-in-flight wire shapes and the reuse of one connection
// buffer across consecutive frames regression-tested by plain `go test`
// even where fuzzing never runs.
//
// Refresh after a framing change (here and in netps and netar, whose
// corpora hold the same layout) with:
//
//	GEN_FUZZ_CORPUS=1 go test ./internal/wire/ ./internal/netps/ ./internal/netar/ -run 'TestGenerate.*Corpus'
package wire

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestGenerateCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz seeds")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzRead")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	inputs := map[string][][]byte{}
	for prefix, seeds := range map[string][]seed{"codec": codecSeeds(), "xiter": xiterSeeds()} {
		for _, s := range seeds {
			inputs[prefix] = append(inputs[prefix], frame(t, s.h, s.payload))
		}
	}
	for _, frames := range streamSeeds() {
		inputs["stream"] = append(inputs["stream"], stream(t, frames))
	}
	for prefix, datas := range inputs {
		for i, data := range datas {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", string(data))
			name := filepath.Join(dir, fmt.Sprintf("%s%02d", prefix, i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
