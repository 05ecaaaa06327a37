package mpisim_test

import (
	"fmt"
	"math"
	"testing"

	"scalana/internal/machine"
	"scalana/internal/mpisim"
)

// everyTick is a timer sampler with a period short enough that every
// advance below crosses a boundary.
type everyTick struct{ samples int }

func (s *everyTick) MPIEvent(*mpisim.Proc, *mpisim.Event) float64 { return 0 }
func (s *everyTick) SamplePeriod() float64                        { return 1e-3 }
func (s *everyTick) Sample(*mpisim.Proc, int64, float64, *machine.Vec) float64 {
	s.samples++
	return 0
}

// TestNonFiniteAdvanceFailsTheRank: an advance by NaN or ±Inf seconds
// fails its rank with a message naming the value and leaves the clock
// where it was, bare and under a timer sampler. The sampling gate
// (Clock >= nextAt) needs a finite clock that never decreases; before,
// a NaN slipped through the backwards check and made the clock NaN.
func TestNonFiniteAdvanceFailsTheRank(t *testing.T) {
	for _, dt := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, sampled := range []bool{false, true} {
			cfg := mpisim.Config{NP: 1}
			s := &everyTick{}
			if sampled {
				cfg.HookFactory = func(int) mpisim.Hook { return s }
			}
			res, err := mpisim.NewWorld(cfg).RunBlocking(func(p *mpisim.Proc) {
				p.Advance(2)
				p.Advance(dt)
			})
			want := fmt.Sprintf("rank 0: mpisim: rank 0 advance by a non-finite %g s", dt)
			if err == nil || err.Error() != want {
				t.Errorf("advance by %g (sampled %v): error %v, want %q", dt, sampled, err, want)
			}
			if res.Clocks[0] != 2 || res.Advances != 1 {
				t.Errorf("advance by %g (sampled %v): clock %g after %d advances, want 2 after 1", dt, sampled, res.Clocks[0], res.Advances)
			}
			if sampled && s.samples != 1 {
				t.Errorf("advance by %g: %d samples, want the first advance's", dt, s.samples)
			}
		}
	}
}
