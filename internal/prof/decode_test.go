package prof

// Tests that hold the single-pass reader (decode.go) to decodeOracle, the
// encoding/json decoder it replaced: accept/reject must agree, and
// whatever both accept must re-encode to the same bytes. The same check
// holds the reader's two sinks to each other — ReadProfileSet's reused
// scratch rank against DecodeProfileSet's kept ones: same verdict, same
// error text, same set. The cases that need a simulated app live in
// decode_apps_test.go (package prof_test).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"scalana/internal/mpisim"
	"scalana/internal/psg"
)

// repeatsArrayField reports whether some object in data names one of the
// array-valued wire fields twice — the one input class where agreement
// with the oracle is given up on purpose. encoding/json decodes the
// second array's elements *into* the first's (element i keeps every field
// the second occurrence leaves out, and a shorter array leaves stale
// elements behind its length for a third to pick up); reproducing that
// would mean buffering DTOs again. The reader replaces the array.
func repeatsArrayField(data []byte) bool {
	type frame struct {
		object, wantKey bool
		seen            [2]bool
	}
	var stack []frame
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		top := len(stack) - 1
		switch d, isDelim := tok.(json.Delim); {
		case isDelim && (d == '{' || d == '['):
			stack = append(stack, frame{object: d == '{', wantKey: d == '{'})
			continue
		case isDelim:
			stack = stack[:top]
			top--
		case top >= 0 && stack[top].wantKey:
			for i, name := range []string{"profiles", "comm"} {
				if strings.EqualFold(tok.(string), name) {
					if stack[top].seen[i] {
						return true
					}
					stack[top].seen[i] = true
				}
			}
			stack[top].wantKey = false
			continue
		}
		// A value just ended; an enclosing object expects a key next.
		if top >= 0 && stack[top].object {
			stack[top].wantKey = true
		}
	}
}

// copiedRanks is a streaming sink that keeps a copy of each scratch rank
// as it stood during Add.
type copiedRanks struct{ ProfileSet }

func (c *copiedRanks) Reset() { c.Profiles = nil }

func (c *copiedRanks) Add(rp *RankProfile) error {
	cp := *rp
	cp.Vertex, cp.Comm = slices.Clone(rp.Vertex), slices.Clone(rp.Comm)
	c.Profiles = append(c.Profiles, &cp)
	return nil
}

// checkStreamed holds ReadProfileSet, whose ranks pass through one reused
// scratch profile, to what DecodeProfileSet made of the same bytes.
func checkStreamed(tb testing.TB, data []byte, g *psg.Graph, got *ProfileSet, gotErr error) {
	tb.Helper()
	var streamed copiedRanks
	env, err := ReadProfileSet(data, g, &streamed)
	if _, dropErr := ReadProfileSet(data, g, nil); fmt.Sprint(err) != fmt.Sprint(gotErr) || fmt.Sprint(dropErr) != fmt.Sprint(gotErr) {
		tb.Fatalf("the two sinks disagree:\n kept ranks:     %v\n streamed ranks: %v\n dropped ranks:  %v\n input: %q", gotErr, err, dropErr, clip(data))
	}
	if gotErr != nil {
		return
	}
	streamed.App, streamed.NP, streamed.Elapsed = env.App, env.NP, env.Elapsed
	if env.Profiles != nil {
		tb.Fatalf("ReadProfileSet returned %d profiles with the envelope", len(env.Profiles))
	}
	gotEnc, gotErr := got.Encode()
	streamedEnc, err := streamed.Encode()
	if fmt.Sprint(err) != fmt.Sprint(gotErr) || !bytes.Equal(gotEnc, streamedEnc) {
		tb.Fatalf("the two sinks decode different sets (%v, %v)\n input: %q\n--- kept ---\n%s\n--- streamed ---\n%s", gotErr, err, clip(data), clip(gotEnc), clip(streamedEnc))
	}
}

// checkAgainstOracle is the differential property. It returns the named
// reason when data falls in a class where disagreement is accepted.
func checkAgainstOracle(tb testing.TB, data []byte, g *psg.Graph) (skipped string) {
	tb.Helper()
	got, gotErr := DecodeProfileSet(data, g)
	checkStreamed(tb, data, g, got, gotErr)
	want, wantErr := decodeOracle(data, g)
	if (gotErr == nil) != (wantErr == nil) {
		if repeatsArrayField(data) {
			return "repeated array-valued field"
		}
		tb.Fatalf("reader and oracle disagree on acceptance:\n reader: %v\n oracle: %v\n input: %q", gotErr, wantErr, clip(data))
	}
	if gotErr != nil {
		return ""
	}
	gotEnc, gotErr := got.Encode()
	wantEnc, wantErr := want.Encode()
	if (gotErr == nil) != (wantErr == nil) {
		tb.Fatalf("re-encode disagrees: reader %v, oracle %v\n input: %q", gotErr, wantErr, clip(data))
	}
	if !bytes.Equal(gotEnc, wantEnc) {
		if repeatsArrayField(data) {
			return "repeated array-valued field"
		}
		tb.Fatalf("reader and oracle decode different sets\n input: %q\n--- reader ---\n%s\n--- oracle ---\n%s", clip(data), clip(gotEnc), clip(wantEnc))
	}
	// The envelope scan must agree with the full decode it routes.
	app, np, err := PeekEnvelope(data)
	if err != nil || app != got.App || np != got.NP {
		tb.Fatalf("PeekEnvelope = (%q, %d, %v), full decode has (%q, %d)\n input: %q", app, np, err, got.App, got.NP, clip(data))
	}
	return ""
}

func clip(b []byte) []byte {
	if len(b) > 2000 {
		return append(b[:2000:2000], "…"...)
	}
	return b
}

// awkwardInputs is the hand-written table: every shape of input the old
// decoder had an opinion on that no writer produces. Vertex keys are
// filled in from the fuzz graph: %[1]s and %[2]s are JSON-quoted keys of
// two real vertices.
var awkwardInputs = []struct {
	name, input string
	// gaveUp names the class under which this input may disagree with the
	// oracle; "" demands agreement.
	gaveUp string
}{
	{name: "empty object", input: `{}`},
	{name: "top-level null", input: `null`},
	{name: "top-level array", input: `[]`},
	{name: "top-level number", input: `5`},
	{name: "top-level string", input: `"x"`},
	{name: "top-level true", input: `true`},
	{name: "empty input", input: ``},
	{name: "whitespace only", input: " \n\t"},
	{name: "whitespace everywhere", input: " { \"app\" :\t\"x\" ,\r\n \"np\" : 2 , \"profiles\" : [ { \"rank\" : 1 , \"vertex\" : { %[1]s : { \"PMU\" : [ 1 , 2 ] } } } ] } \n"},
	{name: "reordered fields", input: `{"profiles":[{"indirect":[{"Count":2,"Target":"f","Site":3,"InstancePath":"main"}],"comm":[{"MaxWait":0.5,"Count":4,"Op":"mpi_send","VertexKey":%[1]s,"DepVertex":%[2]s,"Tag":7}],"vertex":{%[1]s:{"PMU":[1,2,3,4,5],"Time":0.25,"Samples":9}},"np":2,"rank":1}],"elapsed":1.5,"np":2,"app":"x"}`},
	{name: "unknown fields at every level", input: `{"x":{"a":[1,{"b":null}],"c":"d"},"app":"x","profiles":[{"y":[[],{}],"rank":0,"vertex":{%[1]s:{"z":{"k":[true,false]},"Samples":1}},"comm":[{"w":1e5,"VertexKey":%[1]s}],"indirect":[{"v":"\u00e9"}]}]}`},
	{name: "empty field name", input: `{"":1,"app":"x"}`},
	{name: "unknown field with a number no float holds", input: `{"x":1e999999,"y":-0.0e-0}`},
	{name: "number with a tail", input: `{"np":1x}`},
	{name: "unknown field with bad syntax", input: `{"x":{"a":[1,}]},"app":"x"}`},
	{name: "unknown field with bad number", input: `{"x":01}`},
	{name: "unknown field with bad escape", input: `{"x":"\q"}`},
	{name: "unknown field with control character", input: "{\"x\":\"a\nb\"}"},
	{name: "case-folded names", input: `{"APP":"x","Np":3,"ELAPSED":2,"Profiles":[{"RANK":1,"NP":3,"VERTEX":{%[1]s:{"samples":4,"TIME":1,"pmu":[1]}},"COMM":[{"vertexkey":%[1]s,"OP":"mpi_recv","deprank":2,"DEPVERTEX":%[2]s,"tag":1,"BYTES":8,"collective":true,"COUNT":3,"totalwait":1,"MAXWAIT":1}],"Indirect":[{"instancepath":"main","SITE":2,"target":"g","COUNT":1}]}]}`},
	{name: "Kelvin sign folds to k", input: "{\"profiles\":[{\"ran\u212a\":3}]}"},
	{name: "long s folds to s", input: "{\"profiles\":[{\"vertex\":{%[1]s:{\"\u017fample\u017f\":3}}}]}"},
	{name: "escaped field name", input: `{"\u0061pp":"x","n\u0070":4}`},
	{name: "exact name wins over folded", input: `{"np":1,"NP":2,"np":3}`},
	{name: "duplicate scalar fields", input: `{"app":"a","app":"b","np":1,"np":2,"elapsed":1,"elapsed":2}`},
	{name: "null after a value keeps it", input: `{"app":"a","app":null,"np":7,"np":null,"elapsed":3,"elapsed":null}`},
	{name: "null everywhere", input: `{"app":null,"np":null,"elapsed":null,"profiles":null}`},
	{name: "null rank profile", input: `{"profiles":[null]}`},
	{name: "null rank fields", input: `{"profiles":[{"rank":null,"np":null,"vertex":null,"comm":null,"indirect":null}]}`},
	{name: "null vertex record", input: `{"profiles":[{"vertex":{%[1]s:null}}]}`},
	{name: "null vertex record then a real one", input: `{"profiles":[{"vertex":{%[1]s:null,%[1]s:{"Samples":2}}}]}`},
	{name: "real vertex record then null", input: `{"profiles":[{"vertex":{%[1]s:{"Samples":2},%[1]s:null}}]}`},
	{name: "null vertex record fixed by a second vertex object", input: `{"profiles":[{"vertex":{%[1]s:null},"vertex":{%[1]s:{"Time":1}}}]}`},
	{name: "null vertex record forgotten by a null vertex object", input: `{"profiles":[{"vertex":{%[1]s:null},"vertex":null}]}`},
	{name: "null PerfData fields", input: `{"profiles":[{"vertex":{%[1]s:{"Samples":null,"Time":null,"PMU":null}}}]}`},
	{name: "null PMU elements", input: `{"profiles":[{"vertex":{%[1]s:{"PMU":[1,null,3]}}}]}`},
	{name: "null PMU element keeps the earlier PMU's", input: `{"profiles":[{"vertex":{%[1]s:{"PMU":[1,2,3,4,5],"PMU":[null,9]}}}]}`},
	{name: "null comm record", input: `{"profiles":[{"comm":[null]}]}`},
	{name: "null comm fields", input: `{"profiles":[{"comm":[{"VertexKey":%[1]s,"Op":null,"DepRank":null,"DepVertex":null,"Tag":null,"Bytes":null,"Collective":null,"Count":null,"TotalWait":null,"MaxWait":null}]}]}`},
	{name: "null comm VertexKey", input: `{"profiles":[{"comm":[{"VertexKey":null}]}]}`},
	{name: "null indirect record", input: `{"profiles":[{"indirect":[null]}]}`},
	{name: "null indirect fields", input: `{"profiles":[{"indirect":[{"InstancePath":null,"Site":null,"Target":null,"Count":null}]}]}`},
	{name: "duplicate vertex keys", input: `{"profiles":[{"vertex":{%[1]s:{"Samples":1,"Time":2,"PMU":[1,2,3,4,5]},%[1]s:{"Time":3}}}]}`},
	{name: "duplicate vertex objects merge", input: `{"profiles":[{"vertex":{%[1]s:{"Samples":1},%[2]s:{"Samples":2}},"vertex":{%[1]s:{"Time":3}}}]}`},
	{name: "null vertex object forgets the first", input: `{"profiles":[{"vertex":{%[1]s:{"Samples":1}},"vertex":null,"vertex":{%[2]s:{"Samples":2}}}]}`},
	{name: "null vertex object forgives an unknown key", input: `{"profiles":[{"vertex":{"bogus":{}},"vertex":null}]}`},
	{name: "duplicate PerfData fields", input: `{"profiles":[{"vertex":{%[1]s:{"Samples":1,"Samples":2,"Time":1,"Time":2,"PMU":[1,2,3,4,5],"PMU":[7]}}}]}`},
	{name: "short PMU", input: `{"profiles":[{"vertex":{%[1]s:{"PMU":[1,2]}}}]}`},
	{name: "empty PMU", input: `{"profiles":[{"vertex":{%[1]s:{"Samples":1,"PMU":[]}}}]}`},
	{name: "long PMU", input: `{"profiles":[{"vertex":{%[1]s:{"PMU":[1,2,3,4,5,6,"x",{"y":[]},null]}}}]}`},
	{name: "long PMU with bad syntax past the end", input: `{"profiles":[{"vertex":{%[1]s:{"PMU":[1,2,3,4,5,6,tru]}}}]}`},
	{name: "PMU holds a string", input: `{"profiles":[{"vertex":{%[1]s:{"PMU":[1,"x"]}}}]}`},
	{name: "PMU is an object", input: `{"profiles":[{"vertex":{%[1]s:{"PMU":{}}}}]}`},
	{name: "all-zero vertex record", input: `{"profiles":[{"vertex":{%[1]s:{}}}]}`},
	{name: "unknown vertex key", input: `{"profiles":[{"rank":3,"vertex":{"bogus@1":{}}}]}`},
	{name: "unknown vertex key, rank last", input: `{"profiles":[{"vertex":{"bogus@1":{}},"rank":3}]}`},
	{name: "unknown vertex key with a mistyped record", input: `{"profiles":[{"vertex":{"bogus@1":5}}]}`},
	{name: "unknown comm VertexKey", input: `{"profiles":[{"comm":[{"VertexKey":"bogus"}]}]}`},
	{name: "unknown comm VertexKey overridden", input: `{"profiles":[{"comm":[{"VertexKey":"bogus","VertexKey":%[1]s}]}]}`},
	{name: "unknown comm DepVertex", input: `{"profiles":[{"comm":[{"VertexKey":%[1]s,"DepVertex":"bogus"}]}]}`},
	{name: "unknown comm DepVertex overridden by empty", input: `{"profiles":[{"comm":[{"VertexKey":%[1]s,"DepVertex":"bogus","DepVertex":""}]}]}`},
	{name: "absent comm VertexKey", input: `{"profiles":[{"comm":[{"Op":"mpi_send"}]}]}`},
	{name: "empty comm record", input: `{"profiles":[{"comm":[{}]}]}`},
	{name: "duplicate comm keys in one list", input: `{"profiles":[{"comm":[{"VertexKey":%[1]s,"Op":"mpi_send","Count":1},{"VertexKey":%[1]s,"Op":"mpi_send","Count":2}]}]}`},
	{name: "comm keys differing in the sign of zero", input: `{"profiles":[{"comm":[{"VertexKey":%[1]s,"Bytes":0,"Count":1},{"VertexKey":%[1]s,"Bytes":-0.0,"Count":2}]}]}`},
	{name: "escaped vertex key", input: `{"profiles":[{"vertex":{"r\u006fot":{"Samples":1}}}]}`},
	{name: "escaped unknown vertex key", input: `{"profiles":[{"vertex":{"\u00e9\ud83d\ude00\n\"\\\/\b\f\r\t":{}}}]}`},
	{name: "non-ASCII vertex key", input: `{"profiles":[{"vertex":{"héllo→":{}}}]}`},
	{name: "invalid UTF-8 vertex key", input: "{\"profiles\":[{\"vertex\":{\"a\xffb\":{}}}]}"},
	{name: "invalid UTF-8 in app", input: "{\"app\":\"a\xff\xc0b\xe2\x82\"}"},
	{name: "lone surrogates in app", input: `{"app":"\ud800x\udc00\ud800\u0041\ud83d\ude00"}`},
	{name: "surrogate at end of string", input: `{"app":"\ud83d"}`},
	{name: "bad unicode escape", input: `{"app":"\u12g4"}`},
	{name: "short unicode escape", input: `{"app":"\u12"}`},
	{name: "uppercase hex escape", input: `{"app":"\u00E9\u00e9"}`},
	{name: "solidus escape", input: `{"app":"a\/b"}`},
	{name: "single-quote escape", input: `{"app":"a\'b"}`},
	{name: "unterminated string", input: `{"app":"abc`},
	{name: "string ends in backslash", input: `{"app":"abc\`},
	{name: "DEL is a legal string byte", input: "{\"app\":\"a\x7fb\"}"},
	{name: "NUL byte in string", input: "{\"app\":\"a\x00b\"}"},
	{name: "NUL byte between tokens", input: "{\"app\":\x00\"a\"}"},
	{name: "int field given 1.0", input: `{"np":1.0}`},
	{name: "int field given 1e3", input: `{"np":1e3}`},
	{name: "int field given -0", input: `{"np":-0}`},
	{name: "int field at int64 max", input: `{"np":9223372036854775807}`},
	{name: "int field at int64 min", input: `{"np":-9223372036854775808}`},
	{name: "int field past int64 max", input: `{"np":9223372036854775808}`},
	{name: "int field past int64 min", input: `{"np":-9223372036854775809}`},
	{name: "int field with 30 digits", input: `{"np":123456789012345678901234567890}`},
	{name: "int field given a string", input: `{"np":"4"}`},
	{name: "int field given true", input: `{"np":true}`},
	{name: "int64 Samples overflow", input: `{"profiles":[{"vertex":{%[1]s:{"Samples":18446744073709551616}}}]}`},
	{name: "Site given a fraction", input: `{"profiles":[{"indirect":[{"Site":1.5}]}]}`},
	{name: "float given 1e999", input: `{"elapsed":1e999}`},
	{name: "float given -1e999", input: `{"elapsed":-1e999}`},
	{name: "float given 1e-999", input: `{"elapsed":1e-999}`},
	{name: "float at max", input: `{"elapsed":1.7976931348623157e308}`},
	{name: "float just past max", input: `{"elapsed":1.7976931348623159e308}`},
	{name: "float with many digits", input: `{"elapsed":0.1234567890123456789012345678901234567890}`},
	{name: "float with 19 significant digits", input: `{"elapsed":1234567890123456789}`},
	{name: "float with 20 significant digits", input: `{"elapsed":12345678901234567890}`},
	{name: "float at 2^53", input: `{"elapsed":9007199254740992}`},
	{name: "float past 2^53", input: `{"elapsed":9007199254740993}`},
	{name: "float with 22 fraction digits", input: `{"elapsed":0.0000000000000000000001}`},
	{name: "float with 23 fraction digits", input: `{"elapsed":0.00000000000000000000001}`},
	{name: "float with leading fraction zeros", input: `{"elapsed":0.0000018000000001627825}`},
	{name: "float halfway case", input: `{"elapsed":4.35}`},
	{name: "float negative zero", input: `{"elapsed":-0}`},
	{name: "float negative zero fraction", input: `{"elapsed":-0.0}`},
	{name: "float exponent forms", input: `{"profiles":[{"vertex":{%[1]s:{"PMU":[1E2,1e+2,1e-2,1.5E+3,0e0]}}}]}`},
	{name: "float given a string", input: `{"elapsed":"1"}`},
	{name: "number with leading zero", input: `{"np":01}`},
	{name: "number with leading plus", input: `{"np":+1}`},
	{name: "bare minus", input: `{"np":-}`},
	{name: "minus leading zero", input: `{"np":-01}`},
	{name: "number ending in point", input: `{"elapsed":1.}`},
	{name: "number starting with point", input: `{"elapsed":.5}`},
	{name: "number with empty exponent", input: `{"elapsed":1e}`},
	{name: "number with signed empty exponent", input: `{"elapsed":1e+}`},
	{name: "number with two points", input: `{"elapsed":1.2.3}`},
	{name: "hex number", input: `{"np":0x10}`},
	{name: "NaN", input: `{"elapsed":NaN}`},
	{name: "Infinity", input: `{"elapsed":Infinity}`},
	{name: "bool given 1", input: `{"profiles":[{"comm":[{"VertexKey":%[1]s,"Collective":1}]}]}`},
	{name: "bool given a string", input: `{"profiles":[{"comm":[{"VertexKey":%[1]s,"Collective":"true"}]}]}`},
	{name: "misspelt literal", input: `{"profiles":[{"comm":[{"VertexKey":%[1]s,"Collective":tru}]}]}`},
	{name: "literal with a tail", input: `{"profiles":[{"comm":[{"VertexKey":%[1]s,"Collective":truex}]}]}`},
	{name: "capitalised literal", input: `{"app":Null}`},
	{name: "string given a number", input: `{"app":5}`},
	{name: "unknown op behind an unknown vertex", input: `{"profiles":[{"comm":[{"VertexKey":"bogus","Op":"mpi_foo"}]}]}`},
	{name: "unknown op given again as a builtin", input: `{"profiles":[{"comm":[{"VertexKey":%[1]s,"Op":"mpi_foo","op":"mpi_bcast"}]}]}`},
	{name: "op named in the wrong case", input: `{"profiles":[{"comm":[{"VertexKey":%[1]s,"Op":"MPI_SEND"}]}]}`},
	{name: "empty op", input: `{"profiles":[{"comm":[{"VertexKey":%[1]s,"Op":"","Count":1}]}]}`},
	{name: "Op given an array", input: `{"profiles":[{"comm":[{"VertexKey":%[1]s,"Op":[]}]}]}`},
	{name: "profiles is an object", input: `{"profiles":{}}`},
	{name: "profiles holds a number", input: `{"profiles":[5]}`},
	{name: "profiles holds an array", input: `{"profiles":[[]]}`},
	{name: "vertex is an array", input: `{"profiles":[{"vertex":[]}]}`},
	{name: "vertex record is an array", input: `{"profiles":[{"vertex":{%[1]s:[]}}]}`},
	{name: "comm is an object", input: `{"profiles":[{"comm":{}}]}`},
	{name: "comm holds a string", input: `{"profiles":[{"comm":["x"]}]}`},
	{name: "indirect holds a number", input: `{"profiles":[{"indirect":[1]}]}`},
	{name: "empty profiles", input: `{"app":"x","np":4,"profiles":[]}`},
	{name: "empty containers", input: `{"profiles":[{"vertex":{},"comm":[],"indirect":[]}]}`},
	{name: "huge np with few profiles", input: `{"np":9000000000000000000,"profiles":[{}]}`},
	{name: "negative np", input: `{"np":-3,"profiles":[{}]}`},
	{name: "trailing garbage", input: `{"app":"x"} x`},
	{name: "trailing second value", input: `{"app":"x"}{}`},
	{name: "trailing comma in object", input: `{"app":"x",}`},
	{name: "trailing comma in array", input: `{"profiles":[{},]}`},
	{name: "leading comma", input: `{,"app":"x"}`},
	{name: "double comma", input: `{"app":"x",,"np":1}`},
	{name: "missing comma", input: `{"app":"x" "np":1}`},
	{name: "missing colon", input: `{"app" "x"}`},
	{name: "missing value", input: `{"app":}`},
	{name: "unquoted key", input: `{app:"x"}`},
	{name: "number key", input: `{1:"x"}`},
	{name: "mismatched closer", input: `{"profiles":[}`},
	{name: "byte order mark", input: "\xef\xbb\xbf{}"},
	{name: "form feed is not whitespace", input: "{\f}"},
	{name: "comment", input: `{/*x*/}`},
	{name: "indirect records under one key", input: `{"profiles":[{"indirect":[{"InstancePath":"m","Site":1,"Target":"f","Count":1},{"InstancePath":"m","Site":1,"Target":"f","Count":5}]}]}`},
	{name: "indirect with escapes", input: `{"profiles":[{"indirect":[{"InstancePath":"m\u00e9\n","Target":"\ud83d\ude00"}]}]}`},

	{name: "second rank leaves out what the first gave", input: `{"profiles":[{"rank":0,"np":2,"vertex":{%[1]s:{"Samples":3,"Time":1,"PMU":[1,2,3,4,5]}},"comm":[{"VertexKey":%[1]s,"Op":"mpi_send","DepRank":1,"Count":2}],"indirect":[{"InstancePath":"main","Site":1,"Target":"f","Count":1}]},{}]}`},
	{name: "ranks out of order", input: `{"app":"x","np":3,"profiles":[{"rank":2,"np":3},{"rank":0,"np":3},{"rank":1,"np":3}]}`},
	{name: "duplicate rank", input: `{"app":"x","np":2,"profiles":[{"rank":1,"np":2},{"rank":1,"np":2}]}`},
	{name: "a rank whose np disagrees", input: `{"app":"x","np":2,"profiles":[{"rank":0,"np":2},{"rank":1,"np":4}]}`},
	{name: "np larger than the bytes could hold", input: `{"app":"x","np":1000000000,"profiles":[{"rank":0,"np":1000000000}]}`},

	{name: "repeated comm arrays merge in the oracle", input: `{"profiles":[{"comm":[{"VertexKey":%[1]s,"Op":"mpi_send","Count":1}],"comm":[{"VertexKey":%[1]s,"Count":2}]}]}`, gaveUp: "repeated array-valued field"},
	{name: "repeated profiles arrays merge in the oracle", input: `{"profiles":[{"rank":1,"np":2}],"profiles":[{"np":3}]}`, gaveUp: "repeated array-valued field"},
	{name: "repeated indirect arrays", input: `{"profiles":[{"indirect":[{"Target":"f","Count":1}],"indirect":[{"Count":2}]}]}`},
	{name: "indirect with a number no float holds", input: `{"profiles":[{"indirect":[{"Site":1e999}]}]}`},
	{name: "a null rank profile replaced by a second profiles array", input: `{"profiles":[null],"profiles":[]}`, gaveUp: "repeated array-valued field"},
	{name: "repeated comm, second null", input: `{"profiles":[{"comm":[{"VertexKey":"bogus"}],"comm":null}]}`},
	{name: "repeated comm, second empty", input: `{"profiles":[{"comm":[null],"comm":[]}]}`},
	{name: "repeated indirect, second null", input: `{"profiles":[{"indirect":[null],"indirect":null}]}`},
	{name: "repeated profiles, first null", input: `{"profiles":null,"profiles":[{"rank":1}]}`},
}

// awkwardKeys returns two JSON-quoted vertex keys of g for the table.
func awkwardKeys(tb testing.TB, g *psg.Graph) (string, string) {
	tb.Helper()
	keys := g.Keys()
	if len(keys) < 3 {
		tb.Fatal("fuzz graph has fewer than three vertices")
	}
	a, _ := json.Marshal(keys[1])
	b, _ := json.Marshal(keys[2])
	return string(a), string(b)
}

func awkwardInput(input, k1, k2 string) []byte {
	if !strings.Contains(input, "%[") {
		return []byte(input)
	}
	return []byte(fmt.Sprintf(input, k1, k2))
}

func TestDecodeMatchesOracle(t *testing.T) {
	g := fuzzGraph(t)
	k1, k2 := awkwardKeys(t, g)
	for _, tc := range awkwardInputs {
		t.Run(tc.name, func(t *testing.T) {
			data := awkwardInput(tc.input, k1, k2)
			skipped := checkAgainstOracle(t, data, g)
			if skipped != tc.gaveUp {
				t.Fatalf("agreement given up for %q, table says %q", skipped, tc.gaveUp)
			}
			if skipped != "" {
				t.Skipf("named divergence: %s", skipped)
			}
		})
	}

	// Every prefix of a small, fully populated set: truncated input is
	// rejected by both, at every byte.
	t.Run("truncated at every byte", func(t *testing.T) {
		full, err := fuzzSeedSet(t, g).Encode()
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n <= len(full); n++ {
			checkAgainstOracle(t, full[:n], g)
		}
		if _, err := DecodeProfileSet(full[:len(full)-1], g); err == nil {
			t.Fatal("a set missing its last byte decoded")
		}
	})
}

// TestRepeatedArrayFieldLastWins pins what the reader does in the one
// class where it leaves the oracle: the second array replaces the first,
// and inside a rank object takes the first's pending faults with it.
func TestRepeatedArrayFieldLastWins(t *testing.T) {
	g := fuzzGraph(t)
	k1, _ := awkwardKeys(t, g)
	data := []byte(fmt.Sprintf(`{"profiles":[{"rank":7},{"rank":8}],"profiles":[{"rank":1,"comm":[{"VertexKey":"bogus"}],"comm":[{"VertexKey":%[1]s,"Op":"mpi_send"},{"VertexKey":%[1]s,"Op":"mpi_recv"}]}]}`, k1))
	ps, err := DecodeProfileSet(data, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Profiles) != 1 || ps.Profiles[0].Rank != 1 {
		t.Fatalf("profiles = %+v, want the second array's one rank", ps.Profiles)
	}
	if rp := ps.Profiles[0]; len(rp.Comm) != 2 {
		t.Fatalf("comm %d, want the second array's 2", len(rp.Comm))
	}
}

// TestDecodeRejectsUnknownOp: the ops on the wire are the closed set of
// MPI builtins. A name outside it is a decode error that names it, on the
// reader and the oracle alike; an absent or empty Op is mpisim.OpNone.
func TestDecodeRejectsUnknownOp(t *testing.T) {
	g := fuzzGraph(t)
	k1, _ := awkwardKeys(t, g)
	bad := []byte(fmt.Sprintf(`{"profiles":[{"rank":3,"comm":[{"VertexKey":%s,"Op":"mpi_foo"}]}]}`, k1))
	const want = `rank 3 profile names operation "mpi_foo", which is not an MPI builtin`
	if _, err := DecodeProfileSet(bad, g); err == nil || err.Error() != want {
		t.Errorf("reader: %v, want %q", err, want)
	}
	if _, err := decodeOracle(bad, g); err == nil || err.Error() != want {
		t.Errorf("oracle: %v, want %q", err, want)
	}
	for _, op := range []string{``, `,"Op":""`, `,"Op":null`} {
		data := []byte(fmt.Sprintf(`{"profiles":[{"comm":[{"VertexKey":%s%s}]}]}`, k1, op))
		ps, err := DecodeProfileSet(data, g)
		if err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		if got := ps.Profiles[0].Comm[0].Op; got != mpisim.OpNone {
			t.Errorf("%s: Op = %v, want OpNone", data, got)
		}
	}
}

// samePointer is a sink that records which profile each Add was handed.
type samePointer struct {
	copiedRanks
	handed []*RankProfile
}

func (s *samePointer) Add(rp *RankProfile) error {
	s.handed = append(s.handed, rp)
	return s.copiedRanks.Add(rp)
}

// TestScratchRankIsReusedAndEmptied: ReadProfileSet decodes every rank
// into one profile, so a field a rank leaves out must read as absent, not
// as the previous rank's — and a kept rank must never be that profile.
func TestScratchRankIsReusedAndEmptied(t *testing.T) {
	g := fuzzGraph(t)
	k1, _ := awkwardKeys(t, g)
	full := fmt.Sprintf(`{"rank":0,"np":2,"vertex":{%[1]s:{"Samples":3,"Time":1,"PMU":[1,2,3,4,5]}},"comm":[{"VertexKey":%[1]s,"Op":"mpi_send","DepRank":1,"Count":2}],"indirect":[{"InstancePath":"main","Site":1,"Target":"f","Count":1}]}`, k1)
	data := []byte(`{"profiles":[` + full + `,{"rank":1},` + full + `,{}]}`)
	var sink samePointer
	if _, err := ReadProfileSet(data, g, &sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.handed) != 4 || sink.handed[0] != sink.handed[1] || sink.handed[1] != sink.handed[3] {
		t.Fatalf("Add was handed %p: want one scratch profile four times", sink.handed)
	}
	for i, rp := range sink.Profiles {
		full := i%2 == 0
		if got := [2]int{rp.NumVertexEntries(), len(rp.Comm)}; full != (got == [2]int{1, 1}) || !full && got != [2]int{} {
			t.Errorf("rank object %d decoded to %d vertex and %d comm records", i, got[0], got[1])
		}
		if want := [...]int{0, 1, 0, 0}[i]; !full && (rp.Rank != want || rp.NP != 0) {
			t.Errorf("rank object %d reads rank %d np %d, want %d and 0", i, rp.Rank, rp.NP, want)
		}
	}
	ps, err := DecodeProfileSet(data, g)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Profiles[0] == ps.Profiles[1] {
		t.Fatal("DecodeProfileSet kept one profile twice")
	}
}

// TestDecodeErrorTexts pins the messages callers and operators see.
func TestDecodeErrorTexts(t *testing.T) {
	g := fuzzGraph(t)
	k1, _ := awkwardKeys(t, g)
	for _, tc := range []struct{ input, want string }{
		{`{"profiles":[{"vertex":{"bogus@1":{}},"rank":3}]}`, `rank 3 profile names vertex "bogus@1", which the compiled graph does not contain (profile/app mismatch?)`},
		{`{"profiles":[{"rank":2,"comm":[{"VertexKey":%s,"DepVertex":"nope"}]}]}`, `rank 2 profile names vertex "nope", which the compiled graph does not contain (profile/app mismatch?)`},
		{`{"profiles":[{"rank":1,"vertex":{%s:null}}]}`, `rank 1 profile has a null record for vertex ` + k1},
		{`{"profiles":[{"comm":[null],"rank":4}]}`, `rank 4 profile has a null communication record`},
		{`{"profiles":[null]}`, `profile set has a null rank profile`},
		{`{"np":1.0}`, `parse profile set: number is not an integer the field can hold at offset 9`},
		{`{"x":[[[}`, `parse profile set: expected a value at offset 8`},
	} {
		input := tc.input
		if strings.Contains(input, "%s") {
			input = fmt.Sprintf(input, k1)
		}
		_, err := DecodeProfileSet([]byte(input), g)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s:\n got  %v\n want %s", input, err, tc.want)
		}
		want, oerr := decodeOracle([]byte(input), g)
		if oerr == nil {
			t.Errorf("%s: oracle accepts (%+v)", input, want)
		} else if !strings.HasPrefix(tc.want, "parse profile set:") && oerr.Error() != tc.want {
			t.Errorf("%s: oracle says %v", input, oerr)
		}
	}
}

// TestDecodeDepthBomb: nesting past maxDepth inside an unknown field is an
// error from a bounded stack, not a crashed process; nesting up to it is
// accepted, exactly as encoding/json draws the line.
func TestDecodeDepthBomb(t *testing.T) {
	g := fuzzGraph(t)
	for _, open := range []string{"[", `{"x":`} {
		bomb := []byte(`{"x":` + strings.Repeat(open, 1_000_000))
		if _, err := DecodeProfileSet(bomb, g); err == nil || !strings.Contains(err.Error(), "exceeded max depth") {
			t.Errorf("%q x 1e6: got %v, want a max-depth error", open, err)
		}
		if _, _, err := PeekEnvelope(bomb); err == nil || !strings.Contains(err.Error(), "exceeded max depth") {
			t.Errorf("PeekEnvelope %q x 1e6: got %v, want a max-depth error", open, err)
		}
	}
	for _, extra := range []int{-1, 0, 1} {
		// The top-level object is one level; the array nest adds the rest.
		n := maxDepth - 1 + extra
		data := []byte(`{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`)
		_, err := DecodeProfileSet(data, g)
		if (err == nil) != (extra <= 0) {
			t.Errorf("depth %d: err = %v", n+1, err)
		}
		checkAgainstOracle(t, data, g)
	}
}

// allocBoundSet is a fixed np=64 set over benchGraph(16): every vertex
// sampled, one p2p record per MPI vertex plus a collective, no indirect
// calls — the shape of a bundled app's profile.
func allocBoundSet(tb testing.TB) (*psg.Graph, []byte) {
	tb.Helper()
	g := benchGraph(16)
	const np = 64
	ps := &ProfileSet{App: "bound", NP: np, Elapsed: 1.5}
	for rank := 0; rank < np; rank++ {
		rp := NewRankProfile(g, rank, np)
		for vid := range rp.Vertex {
			rp.Vertex[vid] = PerfData{Samples: int64(vid + rank + 1), Time: float64(vid+1) / 200}
			rp.Vertex[vid].PMU[0] = float64(vid) * 1234.5
		}
		for i, v := range mpiVertices(g) {
			key := CommKey{VID: v.VID, Op: mpisim.OpSendrecv, DepRank: (rank + 1) % np, DepVID: v.VID, Tag: i, Bytes: 4096}
			rp.Comm = append(rp.Comm, CommRecord{CommKey: key, Count: 10, TotalWait: 0.001 * float64(i+1), MaxWait: 0.0001})
		}
		rp.SortComm()
		ps.Profiles = append(ps.Profiles, rp)
	}
	data, err := ps.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return g, data
}

// TestDecodeAllocBound keeps the read side from growing an intermediate
// representation back. A rank costs its RankProfile, its Vertex slice,
// its two maps and one CommRecord per record (16 here) plus map growth;
// the DTO decoder spent about 150 allocations on the same rank.
func TestDecodeAllocBound(t *testing.T) {
	g, data := allocBoundSet(t)
	const perRankCeiling = 32
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := DecodeProfileSet(data, g); err != nil {
			t.Fatal(err)
		}
	})
	if perRank := allocs / 64; perRank > perRankCeiling {
		t.Errorf("decode allocates %.1f objects per rank (%.0f per np=64 set), ceiling %d", perRank, allocs, perRankCeiling)
	}
	oracle := testing.AllocsPerRun(2, func() { decodeOracle(data, g) })
	t.Logf("np=64 set, %d bytes: reader %.0f allocs, oracle %.0f", len(data), allocs, oracle)
}

func FuzzDecodeVsOracle(f *testing.F) {
	g := fuzzGraph(f)
	seed, err := fuzzSeedSet(f, g).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	k1, k2 := awkwardKeys(f, g)
	for _, tc := range awkwardInputs {
		f.Add(awkwardInput(tc.input, k1, k2))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := bytes.Clone(data)
		checkAgainstOracle(t, data, g)
		if !bytes.Equal(data, want) {
			t.Fatalf("a reader wrote into its input\n input: %q", clip(want))
		}
	})
}
