package psg

import "testing"

// TestOptionsNormalize pins the canonicalization rules Run and
// Engine.Compile rely on: the zero value means paper defaults, a
// non-positive MaxLoopDepth is replaced by the default depth, and fully
// specified options pass through untouched.
func TestOptionsNormalize(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   Options
		want Options
	}{
		{"zero value is defaults", Options{}, DefaultOptions()},
		{"contract-only gets default depth", Options{Contract: true}, DefaultOptions()},
		{"negative depth gets default depth", Options{MaxLoopDepth: -3, Contract: true}, DefaultOptions()},
		{"explicit depth kept", Options{MaxLoopDepth: 3, Contract: true}, Options{MaxLoopDepth: 3, Contract: true}},
		{"uncontracted kept", Options{MaxLoopDepth: 10, Contract: false}, Options{MaxLoopDepth: 10, Contract: false}},
	} {
		if got := tc.in.Normalize(); got != tc.want {
			t.Errorf("%s: %+v.Normalize() = %+v, want %+v", tc.name, tc.in, got, tc.want)
		}
	}
}

// TestNormalizedOptionsBuildIdenticalGraphs asserts the heuristic fix:
// Options{Contract: true, MaxLoopDepth: 0} used to slip past defaulting;
// normalized, it must build the same contracted graph as DefaultOptions.
func TestNormalizedOptionsBuildIdenticalGraphs(t *testing.T) {
	a := build(t, fig3, Options{Contract: true}.Normalize())
	b := build(t, fig3, DefaultOptions())
	if a.Opts != b.Opts {
		t.Errorf("normalized options diverge: %+v vs %+v", a.Opts, b.Opts)
	}
	if a.Stats != b.Stats {
		t.Errorf("graph stats diverge: %+v vs %+v", a.Stats, b.Stats)
	}
}

// TestBuildZeroOptionsIsTheDefaults: Build normalizes its options the way
// Engine.Compile does, so the zero value builds the contracted default
// graph, not an uncontracted one.
func TestBuildZeroOptionsIsTheDefaults(t *testing.T) {
	a := build(t, fig3, Options{})
	b := build(t, fig3, DefaultOptions())
	if a.Opts != b.Opts || a.Stats != b.Stats {
		t.Errorf("Build(Options{}) = %+v with %+v, want %+v with %+v", a.Opts, a.Stats, b.Opts, b.Stats)
	}
}
