// Package scales parses and validates the comma-separated job-scale
// lists every front end accepts (scalana-detect, scalana-synth,
// scalana-viewer, and scalana-serve's query parameters). The commands
// used to carry copy-pasted parsing loops with divergent validation:
// duplicates and non-positive rank counts slipped through and silently
// produced duplicate sweep runs. One parser, one rule set.
package scales

import (
	"fmt"
	"strconv"
	"strings"
)

// MaxScales bounds how many scales one list may name. Every power of two
// up to ppg.MaxNP (17 of them) fits; without a bound one request could
// sweep billions of ranks under a single service slot.
const MaxScales = 32

// Parse parses a comma-separated scale list ("4,8,16,32") and checks it
// with Validate. The user's order is preserved exactly (detection reports
// depend on run order, so the parser never reorders). Whitespace around
// entries is ignored.
func Parse(list string) ([]int, error) {
	if strings.TrimSpace(list) == "" {
		return nil, fmt.Errorf("empty scale list")
	}
	parts := strings.Split(list, ",")
	nps := make([]int, 0, len(parts))
	for _, part := range parts {
		s := strings.TrimSpace(part)
		if s == "" {
			return nil, fmt.Errorf("empty scale entry in %q", list)
		}
		np, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("bad scale %q", s)
		}
		nps = append(nps, np)
	}
	if err := Validate(nps); err != nil {
		return nil, err
	}
	return nps, nil
}

// Validate checks a scale list: at most MaxScales entries, every scale
// >= 1, no duplicates.
func Validate(nps []int) error {
	if len(nps) > MaxScales {
		return fmt.Errorf("%d scales: a list may name at most %d", len(nps), MaxScales)
	}
	seen := make(map[int]bool, len(nps))
	for _, np := range nps {
		if np < 1 {
			return fmt.Errorf("scale %d: rank counts must be at least 1", np)
		}
		if seen[np] {
			return fmt.Errorf("duplicate scale %d: each scale may appear once", np)
		}
		seen[np] = true
	}
	return nil
}

// SplitMin partitions nps into the scales usable at an application's
// minimum rank count and the dropped remainder, preserving order in
// both. Callers warn about dropped and error when kept is empty —
// silently proceeding with a thinned (or empty) sweep is the
// scalana-viewer bug this helper exists to prevent.
func SplitMin(nps []int, minNP int) (kept, dropped []int) {
	for _, np := range nps {
		if np >= minNP {
			kept = append(kept, np)
		} else {
			dropped = append(dropped, np)
		}
	}
	return kept, dropped
}
