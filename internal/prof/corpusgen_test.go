package prof

// TestWriteFuzzSeedCorpus regenerates the committed fuzz seed corpora
// when SCALANA_WRITE_FUZZ_CORPUS=1 (a maintenance hook, not a test).
import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFuzzSeedCorpus(t *testing.T) {
	if os.Getenv("SCALANA_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set SCALANA_WRITE_FUZZ_CORPUS=1 to regenerate the committed seed corpus")
	}
	g := fuzzGraph(t)
	rich, err := fuzzSeedSet(t, g).Encode()
	if err != nil {
		t.Fatal(err)
	}
	seeds := [][]byte{
		rich,
		[]byte("{}"),
		[]byte(`{"app":"x","np":-3,"profiles":[null]}`),
		[]byte(`{"profiles":[{"rank":-1,"vertex":{"root":null}}]}`),
	}
	writeCorpus(t, "FuzzDecodeProfileSet", seeds)

	// FuzzDecodeVsOracle adds the whole awkward-input table itself
	// (f.Add); the committed corpus is the populated set plus one input a
	// structural region, for runs that start from the files alone.
	k1, k2 := awkwardKeys(t, g)
	seeds = [][]byte{rich}
	for _, tc := range awkwardInputs {
		switch tc.name {
		case "reordered fields", "unknown fields at every level", "case-folded names",
			"duplicate vertex objects merge", "escaped unknown vertex key", "long PMU",
			"repeated comm arrays merge in the oracle",
			"repeated profiles arrays merge in the oracle", "null rank profile",
			"second rank leaves out what the first gave", "ranks out of order", "duplicate rank",
			"a rank whose np disagrees", "np larger than the bytes could hold":
			seeds = append(seeds, awkwardInput(tc.input, k1, k2))
		}
	}
	writeCorpus(t, "FuzzDecodeVsOracle", seeds)
}

func writeCorpus(t *testing.T, target string, seeds [][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed%d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
