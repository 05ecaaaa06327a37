package mpisim

import (
	"math"
	"math/rand"
	"testing"
)

// checkStream compares n Float64 draws of NewStream(seed) with math/rand's.
func checkStream(t *testing.T, seed int64, n int) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	s := NewStream(seed)
	for k := 0; k < n; k++ {
		if g, w := s.Float64(), want.Float64(); g != w {
			t.Fatalf("seed %d draw %d: stream %v, math/rand %v", seed, k, g, w)
		}
	}
}

// TestStreamIsMathRand checks three full register turns of draws, across
// the seed reduction's edges (0, ±(2^31-1) and its multiples, the seed 0
// becomes) and the seeds Proc.Rand derives from a world seed and a rank.
func TestStreamIsMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, int32max, -int32max, 2 * int32max, 89482311,
		1 << 40, -(1 << 50), math.MinInt64, math.MaxInt64,
	}
	for _, seed := range []int64{0, 1, 42} {
		for _, rank := range []int64{0, 1, 7, 1023} {
			seeds = append(seeds, seed*7919+rank+1)
		}
	}
	for _, seed := range seeds {
		checkStream(t, seed, 3*rngLen)
	}
}

func FuzzStreamIsMathRand(f *testing.F) {
	f.Add(int64(1), uint16(rngTap+1))
	f.Add(int64(-1), uint16(3*rngLen))
	f.Add(int64(math.MinInt64), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		checkStream(t, seed, int(n))
	})
}

// TestRandDrawsAllocateNothing: a rank's first rngTap draws are computed
// from its seed; only the next one builds the register.
func TestRandDrawsAllocateNothing(t *testing.T) {
	p := NewWorld(Config{NP: 1, Seed: 1}).Proc(0)
	draws := 0
	allocs := testing.AllocsPerRun(rngTap-1, func() {
		p.Rand()
		draws++
	})
	// AllocsPerRun makes one warm-up call before the counted ones.
	if draws != rngTap || allocs != 0 {
		t.Errorf("%d draws average %v allocs, want %d and 0", draws, allocs, rngTap)
	}
	if p.rng.reg != nil {
		t.Errorf("the register was built within %d draws", rngTap)
	}
}
