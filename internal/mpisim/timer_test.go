package mpisim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"scalana/internal/machine"
)

// sampleRec is one Sample call as its receiver saw it.
type sampleRec struct {
	clock     float64
	crossings int64
	pmu       machine.Vec
}

// timerOnly is a TimerSampler and nothing else, so its rank takes the
// path a profiled production rank takes: no hook call between samples.
type timerOnly struct {
	period, cost float64
	samples      []sampleRec
}

func (s *timerOnly) MPIEvent(*Proc, *Event) float64 { return 0 }
func (s *timerOnly) SamplePeriod() float64          { return s.period }
func (s *timerOnly) Sample(p *Proc, crossings int64, period float64, pmu *machine.Vec) float64 {
	s.samples = append(s.samples, sampleRec{p.Clock, crossings, *pmu})
	return float64(crossings) * s.cost
}

// timerOracle is attached twice over to one rank: as an every-advance
// observer it works out, from each advance's own from and to, how many
// period boundaries the advance crossed and which counter deltas a sample
// taken there must deliver; as the rank's timer sampler it checks that
// the rank's timer — which sees none of that, only its clock — fired then,
// with that, and at no other time. Observers run before the sampler, so
// the expectation is always one call old.
type timerOracle struct {
	t      *testing.T
	period float64
	cost   float64 // overhead a crossing asks for

	pending machine.Vec // deltas since the last expected sample
	due     bool        // the current advance must fire the timer
	want    struct {
		crossings int64
		pmu       machine.Vec
	}
	samples   []sampleRec
	charged   float64 // overhead asked for outside perturbation advances
	perturbed int     // samples taken by a perturbation advance
	exact     int     // advances that ended on a multiple of the period
	kind      AdvanceKind
}

var (
	_ AdvanceObserver = (*timerOracle)(nil)
	_ TimerSampler    = (*timerOracle)(nil)
)

func (o *timerOracle) MPIEvent(*Proc, *Event) float64 { return 0 }
func (o *timerOracle) SamplePeriod() float64          { return o.period }

func (o *timerOracle) Advance(p *Proc, from, to float64, kind AdvanceKind, ctx Ctx, pmu machine.Vec) float64 {
	if o.due {
		o.t.Fatalf("the advance before %g -> %g crossed %d boundaries and the timer did not fire", from, to, o.want.crossings)
	}
	o.pending.Add(pmu)
	o.kind = kind
	if q := to / o.period; q == math.Trunc(q) && to > from {
		o.exact++
	}
	if n := int64(to/o.period) - int64(from/o.period); n != 0 {
		o.due = true
		o.want.crossings, o.want.pmu = n, o.pending
		o.pending = machine.Vec{}
	}
	return 0
}

func (o *timerOracle) Sample(p *Proc, crossings int64, period float64, pmu *machine.Vec) float64 {
	if !o.due {
		o.t.Fatalf("timer fired at clock %g with no boundary crossed", p.Clock)
	}
	o.due = false
	if crossings != o.want.crossings || *pmu != o.want.pmu || period != o.period {
		o.t.Fatalf("at clock %g: Sample(crossings %d, period %g, pmu %v), want %d, %g, %v",
			p.Clock, crossings, period, *pmu, o.want.crossings, o.period, o.want.pmu)
	}
	o.samples = append(o.samples, sampleRec{p.Clock, crossings, *pmu})
	owed := float64(crossings) * o.cost
	if o.kind == AdvPerturb {
		o.perturbed++
		return 1e9 // must be ignored, or the clock would leave the test's range
	}
	o.charged += owed
	return owed
}

// TestTimerCrossingsProperty drives one rank through random advances and
// checks every one against timerOracle: sub-period steps, advances that
// span many periods, clocks landing exactly on a multiple of the period,
// negative rounding noise clamped to zero, and sample costs large enough
// that the perturbation a sample causes crosses the next boundary itself.
// A second rank with a timerOnly sampler is driven through the same
// advances and must take the same samples at the same clocks.
func TestTimerCrossingsProperty(t *testing.T) {
	kinds := []AdvanceKind{AdvMPIOverhead, AdvTransfer, AdvWait}
	drive := func(p *Proc, period float64, rng *rand.Rand) {
		for i := 0; i < 4000; i++ {
			switch c := rng.Intn(10); {
			case c < 3: // far below a period
				p.advance(period*1e-3*rng.Float64(), kinds[rng.Intn(len(kinds))], &zeroVec)
			case c < 5: // a fraction of a period
				p.advance(period*rng.Float64(), kinds[rng.Intn(len(kinds))], &zeroVec)
			case c < 6: // many periods in one advance
				p.advance(period*(1+40*rng.Float64()), AdvWait, &zeroVec)
			case c < 7: // onto a multiple of the period
				next := (math.Floor(p.Clock/period) + 1 + float64(rng.Intn(3))) * period
				p.advance(next-p.Clock, AdvWait, &zeroVec)
			case c < 8: // rounding noise
				p.advance(-1e-12*rng.Float64(), AdvTransfer, &zeroVec)
			case c < 9:
				p.Glue(24 + float64(rng.Intn(2)))
			default:
				p.Compute(1e5*rng.Float64(), 1e4*rng.Float64(), 1e3, 1<<20)
			}
		}
	}
	for _, period := range []float64{1.0 / 200, 1.0 / 2000, 1e-6, 0.1, 1.0 / 3, 7.3e-5} {
		for _, costFrac := range []float64{0, 1e-3, 0.6, 2.5} {
			t.Run(fmt.Sprintf("period=%g/cost=%g", period, costFrac), func(t *testing.T) {
				o := &timerOracle{t: t, period: period, cost: costFrac * period}
				only := &timerOnly{period: period, cost: costFrac * period}
				w := NewWorld(Config{NP: 2, HookFactory: func(rank int) Hook { return []Hook{o, only}[rank] }})
				p := w.Proc(0)
				seed := int64(period*1e9) + int64(costFrac*1e3)
				drive(p, period, rand.New(rand.NewSource(seed)))
				drive(w.Proc(1), period, rand.New(rand.NewSource(seed)))
				if o.due {
					t.Fatal("the last advance crossed a boundary and the timer did not fire")
				}
				var crossings int64
				for _, rec := range o.samples {
					crossings += rec.crossings
				}
				if want := int64(p.Clock / period); crossings != want {
					t.Errorf("%d crossings delivered by clock %g, want %d", crossings, p.Clock, want)
				}
				if q := w.Proc(1); q.Clock != p.Clock || q.PerturbTotal != p.PerturbTotal || q.samples != p.samples {
					t.Errorf("the timer-only rank ends at clock %g, perturbation %g, %d charged samples; the observed one at %g, %g, %d",
						q.Clock, q.PerturbTotal, q.samples, p.Clock, p.PerturbTotal, p.samples)
				}
				if len(only.samples) != len(o.samples) {
					t.Fatalf("the timer-only rank took %d samples, the observed one %d", len(only.samples), len(o.samples))
				}
				for i, rec := range only.samples {
					if rec != o.samples[i] {
						t.Fatalf("sample %d on the timer-only rank is %+v, on the observed one %+v", i, rec, o.samples[i])
					}
				}
				if p.PerturbTotal != o.charged {
					t.Errorf("perturbation charged %g, want %g (what Sample asked for outside perturbation advances)", p.PerturbTotal, o.charged)
				}
				if o.exact == 0 {
					t.Error("no advance landed exactly on a multiple of the period")
				}
				if costFrac > 1 && o.perturbed == 0 {
					t.Error("no perturbation advance crossed a boundary, though a sample costs more than a period")
				}
			})
		}
	}
}

// TestTimerClampKeepsClock pins the clamp on its own: a negative dt inside
// (-1e-12, 0) is an advance of zero, and a larger one a panic.
func TestTimerClampKeepsClock(t *testing.T) {
	p := NewWorld(Config{NP: 1}).Proc(0)
	p.advance(1, AdvWait, &zeroVec)
	p.advance(-9e-13, AdvWait, &zeroVec)
	if p.Clock != 1 || p.advances != 2 {
		t.Errorf("clock %g after %d advances, want 1 after 2", p.Clock, p.advances)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "time going backwards") {
			t.Errorf("advance(-1e-9) panicked with %v, want time going backwards", r)
		}
	}()
	p.advance(-1e-9, AdvWait, &zeroVec)
}

// callLog records, in order, every callback a rank makes.
type callLog []string

type loggingSampler struct {
	log  *callLog
	cost float64
}

func (h loggingSampler) MPIEvent(*Proc, *Event) float64 { return 0 }
func (h loggingSampler) SamplePeriod() float64          { return 1 }
func (h loggingSampler) Sample(p *Proc, crossings int64, period float64, pmu *machine.Vec) float64 {
	*h.log = append(*h.log, fmt.Sprintf("sample %d", crossings))
	return h.cost
}

// loggingSamplerObserver is one hook that is both a timer sampler and an
// every-advance observer.
type loggingSamplerObserver struct {
	loggingSampler
	advanceCost float64
}

var (
	_ AdvanceObserver = loggingSamplerObserver{}
	_ TimerSampler    = loggingSamplerObserver{}
)

func (h loggingSamplerObserver) Advance(p *Proc, from, to float64, kind AdvanceKind, ctx Ctx, pmu machine.Vec) float64 {
	*h.log = append(*h.log, fmt.Sprintf("advance %s %.4g", kind, to-from))
	return h.advanceCost
}

// TestTimerAndObserverOrder attaches one hook that is both a timer sampler
// and an every-advance observer: it sees the advance as the observer
// first, then as the sampler, and what it asks for is charged together as
// one perturbation advance.
func TestTimerAndObserverOrder(t *testing.T) {
	var log callLog
	w := NewWorld(Config{NP: 1, HookFactory: func(int) Hook {
		return loggingSamplerObserver{loggingSampler{&log, 0.25}, 0.125}
	}})
	p := w.Proc(0)
	p.advance(0.25, AdvWait, &zeroVec)
	p.advance(2, AdvWait, &zeroVec)
	want := callLog{
		"advance wait 0.25", "advance perturb 0.125",
		"advance wait 2", "sample 2", "advance perturb 0.375",
	}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Errorf("calls = %q\nwant    %q", log, want)
	}
	if p.Clock != 2.75 || p.PerturbTotal != 0.5 {
		t.Errorf("clock %g with %g of perturbation, want 2.75 and 0.5", p.Clock, p.PerturbTotal)
	}
}

// TestTimerOverheadIgnoredDuringPerturb: the samples a perturbation
// advance crosses are taken, and what the sampler asks for them is not
// charged — or one sample would cost another for ever.
func TestTimerOverheadIgnoredDuringPerturb(t *testing.T) {
	var log callLog
	w := NewWorld(Config{NP: 1, HookFactory: func(int) Hook { return loggingSampler{&log, 1e9} }})
	p := w.Proc(0)
	p.Perturb(10.5)
	if fmt.Sprint(log) != "[sample 10]" || p.Clock != 10.5 || p.PerturbTotal != 10.5 {
		t.Errorf("calls %q, clock %g, perturbation %g; want one sample of 10 crossings and nothing charged beyond the 10.5 s",
			log, p.Clock, p.PerturbTotal)
	}
	if p.samples != 0 {
		t.Errorf("samples counter = %d, want 0: a perturbation advance is not charged for its samples", p.samples)
	}
}

// TestOneTimerSamplerARank: a rank's one sampling timer needs a positive
// period.
func TestOneTimerSamplerARank(t *testing.T) {
	for name, hook := range map[string]Hook{
		"a period of 0 s":     &timerOracle{period: 0},
		"a period of NaN s":   &timerOracle{period: math.NaN()},
		"a period of -0.01 s": &timerOracle{period: -0.01},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), name) {
					t.Errorf("NewWorld panicked with %v, want a message naming %s", r, name)
				}
			}()
			NewWorld(Config{NP: 1, HookFactory: func(int) Hook { return hook }})
		}()
	}
}
