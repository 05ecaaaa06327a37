package prof

// Native fuzz targets for the ProfileSet wire format: decoding arbitrary
// bytes must never panic, and any input that decodes must round-trip
// losslessly (decode -> encode -> decode -> encode is byte-stable).
// Seed corpus: f.Add below plus the committed files under
// testdata/fuzz/FuzzDecodeProfileSet/.

import (
	"bytes"
	"testing"

	"scalana/internal/machine"
	"scalana/internal/minilang"
	"scalana/internal/mpisim"
	"scalana/internal/psg"
)

// fuzzProgram is the tiny program whose compiled symbol table fuzz
// inputs are re-interned against.
const fuzzProgram = `func main() {
	var rank = mpi_rank();
	var np = mpi_size();
	for (var i = 0; i < 4; i = i + 1) {
		compute(1e6, 1e4, 1e4, 4096);
		mpi_sendrecv((rank + 1) % np, 1, 64, (rank - 1 + np) % np, 1, 64);
	}
	mpi_allreduce(8);
}
`

func fuzzGraph(tb testing.TB) *psg.Graph {
	tb.Helper()
	prog, err := minilang.Parse("fuzz.mp", fuzzProgram)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := psg.Build(prog, psg.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// fuzzSeedSet builds a small but fully-populated profile set against the
// fuzz graph: per-vertex performance vectors, p2p and collective
// communication records with waits.
func fuzzSeedSet(tb testing.TB, g *psg.Graph) *ProfileSet {
	tb.Helper()
	ps := &ProfileSet{App: "fuzz", NP: 2, Elapsed: 0.25}
	for rank := 0; rank < 2; rank++ {
		rp := NewRankProfile(g, rank, 2)
		var mpiVID, compVID psg.VID = psg.VIDNone, psg.VIDNone
		for _, v := range g.Vertices {
			switch {
			case v.Kind == psg.KindMPI && mpiVID == psg.VIDNone:
				mpiVID = v.VID
			case v.Kind == psg.KindComp && compVID == psg.VIDNone:
				compVID = v.VID
			}
		}
		if mpiVID == psg.VIDNone || compVID == psg.VIDNone {
			tb.Fatal("fuzz graph lacks MPI or Comp vertices")
		}
		rp.Vertex[compVID] = PerfData{Samples: 10 + int64(rank), Time: 0.125}
		rp.Vertex[compVID].PMU[machine.TotCyc] = 1e6
		key := CommKey{VID: mpiVID, Op: mpisim.OpSendrecv, DepRank: 1 - rank, DepVID: compVID, Tag: 1, Bytes: 64}
		ckey := CommKey{VID: mpiVID, Op: mpisim.OpAllreduce, DepRank: 1 - rank, DepVID: compVID, Collective: true, Bytes: 8}
		rp.Comm = []CommRecord{
			{CommKey: key, Count: 4, TotalWait: 0.01, MaxWait: 0.004},
			{CommKey: ckey, Count: 1, TotalWait: 0.002, MaxWait: 0.002},
		}
		rp.SortComm()
		ps.Profiles = append(ps.Profiles, rp)
	}
	return ps
}

func FuzzDecodeProfileSet(f *testing.F) {
	g := fuzzGraph(f)
	seed, err := fuzzSeedSet(f, g).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte("{}"))
	f.Add([]byte("null"))
	f.Add([]byte(`{"app":"x","np":-3,"profiles":[null]}`))
	f.Add([]byte(`{"profiles":[{"rank":-1,"vertex":{"root":null}}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := DecodeProfileSet(data, g)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		enc, err := ps.Encode()
		if err != nil {
			t.Fatalf("decoded set does not re-encode: %v", err)
		}
		ps2, err := DecodeProfileSet(enc, g)
		if err != nil {
			t.Fatalf("re-encoded set does not decode: %v\n%s", err, enc)
		}
		enc2, err := ps2.Encode()
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip is not lossless:\n--- first ---\n%s\n--- second ---\n%s", enc, enc2)
		}
	})
}

// TestProfileSetRoundTripLossless pins the non-fuzz contract directly: a
// populated set encodes, decodes, and re-encodes to identical bytes.
func TestProfileSetRoundTripLossless(t *testing.T) {
	g := fuzzGraph(t)
	ps := fuzzSeedSet(t, g)
	enc, err := ps.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeProfileSet(enc, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Profiles) != 2 || dec.App != "fuzz" || dec.NP != 2 {
		t.Fatalf("decoded set lost data: %+v", dec)
	}
	enc2, err := dec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Errorf("encode-decode-encode differs:\n%s\nvs\n%s", enc, enc2)
	}
}
