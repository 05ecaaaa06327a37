package mpisim

import (
	"testing"

	"scalana/internal/machine"
)

// BenchmarkP2PRoundtrip measures matcher throughput for blocking pairs.
func BenchmarkP2PRoundtrip(b *testing.B) {
	w := NewWorld(Config{NP: 2})
	b.ResetTimer()
	_, err := w.RunBlocking(func(p *Proc) {
		for i := 0; i < b.N; i++ {
			if p.Rank == 0 {
				p.Send(1, 0, 1024)
				p.Recv(1, 1, 1024)
			} else {
				p.Recv(0, 0, 1024)
				p.Send(0, 1, 1024)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkNonBlockingExchange measures the isend/irecv/waitall path.
func BenchmarkNonBlockingExchange(b *testing.B) {
	w := NewWorld(Config{NP: 4})
	b.ResetTimer()
	_, err := w.RunBlocking(func(p *Proc) {
		next := (p.Rank + 1) % 4
		prev := (p.Rank + 3) % 4
		for i := 0; i < b.N; i++ {
			p.Irecv(prev, 0, 4096)
			p.Irecv(next, 1, 4096)
			p.Isend(next, 0, 4096)
			p.Isend(prev, 1, 4096)
			p.Waitall()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAllreduce measures collective synchronization cost at np=16.
func BenchmarkAllreduce(b *testing.B) {
	w := NewWorld(Config{NP: 16})
	b.ResetTimer()
	_, err := w.RunBlocking(func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Allreduce(8)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkComputeAdvance measures the machine-model hot path including
// hook-free clock advancement.
func BenchmarkComputeAdvance(b *testing.B) {
	w := NewWorld(Config{NP: 1})
	p := w.Proc(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Compute(1000, 100, 50, 4096)
	}
}

// benchObserver is an every-advance hook that does nothing.
type benchObserver struct{}

func (benchObserver) MPIEvent(*Proc, *Event) float64 { return 0 }
func (benchObserver) Advance(*Proc, float64, float64, AdvanceKind, any, machine.Vec) float64 {
	return 0
}

// BenchmarkGlueAdvance measures the advance a MiniMP statement pays — the
// VM's 24-instruction glue charge, 5.5 ns of virtual time, so one in
// ~92,000 crosses a 2 kHz sample period — on a rank with no hook, with a
// timer sampler (the benchmark sweeps' 2 kHz), and with an every-advance
// observer.
func BenchmarkGlueAdvance(b *testing.B) {
	for _, c := range []struct {
		name  string
		hooks []Hook
	}{
		{"bare", nil},
		{"timer", []Hook{&timerOnly{period: 1.0 / 2000, cost: 1.8e-6}}},
		{"observer", []Hook{benchObserver{}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			w := NewWorld(Config{NP: 1, HookFactory: func(int) []Hook { return c.hooks }})
			p := w.Proc(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Glue(24)
			}
		})
	}
}
