package detect

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"scalana/internal/fit"
	"scalana/internal/minilang"
	"scalana/internal/psg"
)

// edgeFloats are the values where encoding/json's float format changes
// shape: signed zeros, the smallest subnormal, both sides of the 1e-6 and
// 1e21 switches to exponent form, and the extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
	9.99e-7, -9.99e-7, 1e-6, -1e-6, 1e-7, 1.5e-10, 1e20, 1e21, -1e21,
	9.999999999999999e20, 1.2345678901234567e300, math.MaxFloat64, -math.MaxFloat64,
	0.1, 0.0125, -2.5, 123456789.125, 1 << 53,
}

// escapePieces name every class of string escaping: quote and backslash,
// the short control escapes, other control bytes, DEL (left alone), the
// HTML-unsafe bytes, U+2028/U+2029, invalid and truncated UTF-8, and
// multi-byte runes that pass through.
var escapePieces = []string{
	`"`, `\`, "\b", "\f", "\n", "\r", "\t", "\x00", "\x01", "\x1f", "\x7f",
	"<", ">", "&", "\u2028", "\u2029", "\xff", "\xe2\x80", "\xc3", "\u00e9", "\U0001f600",
	"\ufffd", "\u2027", "plain", " ",
}

// TestWireFloatMatchesEncodingJSON: WireFloat spells every finite value
// as json.Marshal spells the float64, and the specials as strings.
func TestWireFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range edgeFloats {
		got, err := WireFloat(f).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("WireFloat(%g) = %s, json.Marshal = %s", f, got, want)
		}
	}
	for f, want := range map[float64]string{math.Inf(1): `"inf"`, math.Inf(-1): `"-inf"`} {
		if got, _ := WireFloat(f).MarshalJSON(); string(got) != want {
			t.Errorf("WireFloat(%g) = %s, want %s", f, got, want)
		}
	}
	if got, _ := WireFloat(math.NaN()).MarshalJSON(); string(got) != `"nan"` {
		t.Errorf("WireFloat(NaN) = %s", got)
	}
}

// checkWire holds EncodeJSON's bytes to encodeOracle's.
func checkWire(t *testing.T, rep *Report) {
	t.Helper()
	got, err := rep.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := encodeOracle(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("writer and oracle differ:\n--- writer ---\n%s\n--- oracle ---\n%s", got, want)
	}
	if cap(got) != len(got)+1 {
		t.Errorf("EncodeJSON returned capacity %d for %d bytes, want room for one more", cap(got), len(got))
	}
}

// TestEncodeEscapesAndFloats: every escape class in every string field,
// every edge float and special in every float field, and the empty and
// nil shapes the omitempty rules leave out.
func TestEncodeEscapesAndFloats(t *testing.T) {
	floats := append(append([]float64(nil), edgeFloats...), math.Inf(1), math.Inf(-1), math.NaN())
	for i, piece := range escapePieces {
		s := "a" + piece + "b" + piece
		v := &psg.Vertex{Key: s, Kind: psg.Kind(i % 8), Name: s, Pos: minilang.Pos{File: s, Line: i - 3}}
		for j, f := range floats {
			c := &Cause{VertexKey: s, Vertex: v, Score: f, Share: -f, Imbalance: f, Paths: j - 2}
			rep := &Report{
				NP: j,
				NonScalable: []NonScalable{
					{VertexKey: s, Vertex: v, Model: fit.LogLog{A: f, B: -f, R2: f}, Share: f, Times: map[int]float64{32: f, 4: -f, -1: f}},
					{VertexKey: s, Times: map[int]float64{}},
				},
				Abnormal: []Abnormal{
					{VertexKey: s, Vertex: v, Ratio: f, OutlierRanks: []int{j, -j}, Share: f},
					{VertexKey: s, OutlierRanks: []int{}},
				},
				Paths: []Path{
					{Steps: []PathStep{{VertexKey: s, Rank: j, Via: StepVia(s), Wait: f}, {VertexKey: s, Vertex: v, Via: ViaComm}}, Cause: c},
					{},
					{Steps: []PathStep{}},
					{Cause: c},
				},
				Causes: []Cause{*c, {VertexKey: s}},
			}
			checkWire(t, rep)
		}
	}
	checkWire(t, &Report{})
	checkWire(t, &Report{NonScalable: []NonScalable{}, Abnormal: []Abnormal{}, Paths: []Path{}, Causes: []Cause{}})
}

// TestEncodeAllocs: the writer sizes its output once; the reflection
// encoder it replaced made 46 allocations for this report.
func TestEncodeAllocs(t *testing.T) {
	rep := fuzzSeedReport()
	if n := testing.AllocsPerRun(100, func() { rep.EncodeJSON() }); n > 3 {
		t.Errorf("EncodeJSON of the seed report: %.1f allocations, want at most 3", n)
	}
}

// fuzzReport builds a report from fuzz input: every string is a run of
// escape pieces and raw bytes, every float an edge value or raw bits.
type fuzzReport struct{ data []byte }

func (r *fuzzReport) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *fuzzReport) bits() uint64 {
	var u uint64
	for range 8 {
		u = u<<8 | uint64(r.byte())
	}
	return u
}

func (r *fuzzReport) float() float64 {
	sel := int(r.byte())
	if sel < len(edgeFloats) {
		return edgeFloats[sel]
	}
	return math.Float64frombits(r.bits())
}

func (r *fuzzReport) int() int {
	if sel := r.byte(); sel < 0xf0 {
		return int(int8(sel))
	}
	return int(int64(r.bits()))
}

func (r *fuzzReport) count() int { return int(r.byte() % 4) }

func (r *fuzzReport) str() string {
	var b []byte
	for range int(r.byte() % 6) {
		sel := int(r.byte())
		if sel < len(escapePieces) {
			b = append(b, escapePieces[sel]...)
		} else {
			b = append(b, byte(sel))
		}
	}
	return string(b)
}

func (r *fuzzReport) vertex() *psg.Vertex {
	if r.byte()%3 == 0 {
		return nil
	}
	return &psg.Vertex{Key: r.str(), Kind: psg.Kind(r.byte() % 8), Name: r.str(), Pos: minilang.Pos{File: r.str(), Line: r.int()}}
}

func (r *fuzzReport) cause() Cause {
	return Cause{VertexKey: r.str(), Vertex: r.vertex(), Score: r.float(), Share: r.float(), Imbalance: r.float(), Paths: r.int()}
}

func (r *fuzzReport) report() *Report {
	rep := &Report{NP: r.int()}
	for range r.count() {
		ns := NonScalable{VertexKey: r.str(), Vertex: r.vertex(), Model: fit.LogLog{A: r.float(), B: r.float(), R2: r.float()}, Share: r.float()}
		if n := r.count(); n > 0 {
			ns.Times = map[int]float64{}
			for range n - 1 {
				ns.Times[r.int()] = r.float()
			}
		}
		rep.NonScalable = append(rep.NonScalable, ns)
	}
	for range r.count() {
		ab := Abnormal{VertexKey: r.str(), Vertex: r.vertex(), Ratio: r.float(), Share: r.float()}
		if n := r.count(); n > 0 {
			ab.OutlierRanks = []int{}
			for range n - 1 {
				ab.OutlierRanks = append(ab.OutlierRanks, r.int())
			}
		}
		rep.Abnormal = append(rep.Abnormal, ab)
	}
	for range r.count() {
		var p Path
		if n := r.count(); n > 0 {
			p.Steps = []PathStep{}
			for range n - 1 {
				p.Steps = append(p.Steps, PathStep{VertexKey: r.str(), Vertex: r.vertex(), Rank: r.int(), Via: StepVia(r.str()), Wait: r.float()})
			}
		}
		if r.byte()%2 == 1 {
			c := r.cause()
			p.Cause = &c
		}
		rep.Paths = append(rep.Paths, p)
	}
	for range r.count() {
		rep.Causes = append(rep.Causes, r.cause())
	}
	return rep
}

// FuzzReportWireVsOracle: EncodeJSON writes encodeOracle's bytes for
// generated reports.
func FuzzReportWireVsOracle(f *testing.F) {
	f.Add([]byte{})
	ramp := make([]byte, 512)
	for i := range ramp {
		ramp[i] = byte(i * 7)
	}
	f.Add(ramp)
	f.Add(bytes.Repeat([]byte{3, 5, 1, 0xff, 2, 9, 0x7f, 4}, 40))
	f.Add(bytes.Repeat([]byte{0xfe, 0xf1, 0x80, 0, 0, 0, 0, 0, 1, 23}, 30))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWire(t, (&fuzzReport{data: data}).report())
	})
}
