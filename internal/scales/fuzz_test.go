package scales

// Native fuzz target for the scale-list parser: Parse must never panic
// on arbitrary input, and every accepted list must satisfy the package
// contract — at most MaxScales entries, each >= 1, no duplicates
// (Validate agrees), and a round trip through rejoining reproduces the
// same list (the parser preserves user order exactly).

import (
	"strconv"
	"strings"
	"testing"
)

func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"4,8,16,32",
		"1",
		"",
		",",
		"a",
		"4,4",
		" 8 , 16 ",
		"-2",
		"0",
		"4,,8",
		"1000000000000000000000", // overflows int
		"4,8\n",
		"\t2 ,3",
	} {
		f.Add(seed)
	}
	over := make([]string, MaxScales+1)
	for i := range over {
		over[i] = strconv.Itoa(i + 1)
	}
	f.Add(strings.Join(over, ",")) // one past MaxScales
	f.Fuzz(func(t *testing.T, list string) {
		nps, err := Parse(list)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		if len(nps) == 0 {
			t.Fatalf("Parse(%q) accepted an empty scale list", list)
		}
		if err := Validate(nps); err != nil {
			t.Fatalf("Parse(%q) = %v violates Validate: %v", list, nps, err)
		}
		// Order preservation: re-rendering the parsed list and parsing
		// again must be a fixpoint.
		parts := make([]string, len(nps))
		for i, np := range nps {
			if np < 1 {
				t.Fatalf("Parse(%q) admitted scale %d < 1", list, np)
			}
			parts[i] = strconv.Itoa(np)
		}
		again, err := Parse(strings.Join(parts, ","))
		if err != nil {
			t.Fatalf("re-parsing Parse(%q) output failed: %v", list, err)
		}
		if len(again) != len(nps) {
			t.Fatalf("re-parse changed length: %v vs %v", nps, again)
		}
		for i := range nps {
			if again[i] != nps[i] {
				t.Fatalf("re-parse changed order: %v vs %v", nps, again)
			}
		}
	})
}
