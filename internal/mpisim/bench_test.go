package mpisim

import "testing"

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
