package mpisim

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"scalana/internal/machine"
)

// eventDigest hashes every event its rank reports, field by field.
type eventDigest struct{ h hash.Hash }

func (d *eventDigest) Advance(p *Proc, from, to float64, kind AdvanceKind, ctx any, pmu machine.Vec) float64 {
	return 0
}

func (d *eventDigest) MPIEvent(p *Proc, ev *Event) float64 {
	fmt.Fprintf(d.h, "%d %s %d %d %d %g %x %x %x %d\n", ev.Kind, ev.Op, ev.Rank, ev.Peer, ev.Tag,
		ev.Bytes, ev.TStart, ev.TEnd, ev.Wait, ev.DepRank)
	return 0
}

// runWildcard runs body on np ranks and returns the final clocks and
// per-rank event streams folded into one digest, with the world for a
// look at the matcher.
func runWildcard(t *testing.T, np int, body func(p *Proc)) (string, *World) {
	t.Helper()
	digests := make([]*eventDigest, np)
	w := NewWorld(Config{NP: np, Seed: 1, HookFactory: func(rank int) Hook {
		digests[rank] = &eventDigest{h: sha256.New()}
		return digests[rank]
	}})
	res, err := w.RunBlocking(body)
	if err != nil {
		t.Fatal(err)
	}
	all := sha256.New()
	for rank, d := range digests {
		fmt.Fprintf(all, "rank %d clock %x events %x\n", rank, res.Clocks[rank], d.h.Sum(nil))
	}
	return fmt.Sprintf("%x", all.Sum(nil)), w
}

// masterWorker is the loop the wildcard fix is about: one tag, every
// message received by mpi_recv_any.
func masterWorker(n int) func(p *Proc) {
	return func(p *Proc) {
		for i := 0; i < n; i++ {
			if p.Rank == 1 {
				p.Send(0, 5, 64)
			} else {
				p.RecvAny(5, 64)
			}
		}
	}
}

// The digests below were recorded from the map-based matcher this one
// replaced (commit e6e52b1), which walked every channel of the world and
// each channel's whole matched history on every wildcard receive.
const (
	masterWorkerDigest = "32fb9051727750d3a90ee054d57f3827694afda37284e36b390a7d2c16e58b59"
	fanInDigest        = "4a7ca07afd82c9672e90db97aa75f03f73ae058c418c2354b68477e923704343"
)

func TestWildcardMatchingUnchanged(t *testing.T) {
	if got, _ := runWildcard(t, 2, masterWorker(20000)); got != masterWorkerDigest {
		t.Errorf("2-rank master/worker: clocks and events digest %s, want %s", got, masterWorkerDigest)
	}
	// Three senders at different paces into one wildcard receiver, a
	// second tag alongside: the earliest-arrival choice and its
	// lowest-sender tie-break run over several channels of one inbox.
	fanIn := func(p *Proc) {
		for i := 0; i < 500; i++ {
			if p.Rank == 0 {
				for j := 0; j < 3; j++ {
					p.RecvAny(5, 64)
				}
				p.Recv(1, 6, 8)
				continue
			}
			p.Compute(float64(p.Rank%2)*1e4, 0, 0, 64)
			p.Send(0, 5, 64)
			if p.Rank == 1 {
				p.Send(0, 6, 8)
			}
		}
	}
	if got, _ := runWildcard(t, 4, fanIn); got != fanInDigest {
		t.Errorf("4-rank fan-in: clocks and events digest %s, want %s", got, fanInDigest)
	}
}

// TestWildcardReceiveCostIsFlat counts the sends wildcard matching
// examines. Skipping a channel's matched prefix from its head index makes
// that a constant per receive; rescanning the prefix made it grow with
// the number already received.
func TestWildcardReceiveCostIsFlat(t *testing.T) {
	perReceive := func(n int) float64 {
		_, w := runWildcard(t, 2, masterWorker(n))
		return float64(w.matcher.anyScanned) / float64(n)
	}
	short, long := perReceive(2000), perReceive(20000)
	if long > short+0.01 || long > 2 {
		t.Errorf("wildcard receive examines %.2f sends at 20,000 messages, %.2f at 2,000: cost grows with history", long, short)
	}
}
