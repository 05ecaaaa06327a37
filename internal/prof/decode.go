package prof

// Single-pass reader for the profile-set wire format (DESIGN.md §7, §13).
//
// The reader walks the upload once with a byte cursor (cursor.go),
// validates the JSON grammar as it goes, resolves every vertex key against the compiled
// graph's immutable symbol table straight from the input buffer, and
// writes into the dense VID-indexed RankProfile — no string-keyed
// intermediate is ever built. It accepts exactly the language
// encoding/json accepted for the old DTO structs (decodeOracle in
// oracle_test.go is that decoder, kept as the differential reference):
// any field order and whitespace, field names matched exactly and then
// case-insensitively, unknown fields skipped but still validated, null as
// "leave the field alone", integer fields refusing 1.0 and 1e3, floats
// refusing what float64 cannot hold, \uXXXX escapes with surrogate pairs
// and U+FFFD for invalid UTF-8, a repeated scalar field last-wins and a
// repeated "vertex" object merged key by key, and nesting capped at
// maxDepth. The one deliberate difference is a repeated
// array-valued field ("profiles", "comm", "indirect" twice in one
// object): encoding/json decodes the second array's elements into the
// first's, a reflection artefact no writer produces; here the second
// array replaces the first.
//
// A rank leaves the reader as its object closes (RankSink). A consumer
// that needs each rank once — ppg.Builder — is handed one scratch profile
// the reader refills rank after rank (ReadProfileSet); DecodeProfileSet is
// the same reader with a sink that keeps every rank, each a fresh profile.

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"scalana/internal/machine"
	"scalana/internal/minilang"
	"scalana/internal/psg"
)

// fieldName resolves an object key to the wire field it addresses the way
// encoding/json does — an exact match, else a case-insensitive one — and
// returns "" for a key that names no field.
func fieldName(names []string, key []byte) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return n
		}
	}
	return ""
}

var (
	setFields      = []string{"app", "np", "elapsed", "profiles"}
	rankFields     = []string{"rank", "np", "vertex", "comm", "indirect"}
	perfFields     = []string{"Samples", "Time", "PMU"}
	commFields     = []string{"VertexKey", "Op", "DepRank", "DepVertex", "Tag", "Bytes", "Collective", "Count", "TotalWait", "MaxWait"}
	indirectFields = []string{"InstancePath", "Site", "Target", "Count"}
)

// decoder reads one profile set against one compiled graph.
type decoder struct {
	cursor
	g *psg.Graph
	// envelopeOnly makes set read "app" and "np" and skip the rest.
	envelopeOnly bool
	// ops interns CommKey.Op once per set: a profile names a handful of
	// MPI operations thousands of times.
	ops map[string]string
	// sink takes each rank as its object closes; nil drops them.
	sink RankSink
	// scratch, when set, is the one profile every rank is decoded into;
	// nil makes each rank a fresh profile the sink may keep.
	scratch *RankProfile
}

// RankSink receives a profile set's ranks in wire order.
type RankSink interface {
	// Reset forgets the ranks added so far: a "profiles" field is about
	// to be read, and a repeated one replaces the first.
	Reset()
	// Add takes one rank. Under ReadProfileSet rp is the reader's scratch:
	// the next rank overwrites it, so whatever outlives the call is copied.
	Add(rp *RankProfile) error
}

// keptRanks is DecodeProfileSet's sink: the set keeps every rank.
type keptRanks ProfileSet

func (k *keptRanks) Reset() { k.Profiles = nil }

func (k *keptRanks) Add(rp *RankProfile) error {
	k.Profiles = append(k.Profiles, rp)
	return nil
}

// DecodeProfileSet parses wire-format bytes written by Encode (by this
// build or a pre-VID one — the wire format is unchanged) and re-interns
// them against the compiled graph's symbol table.
func DecodeProfileSet(data []byte, g *psg.Graph) (*ProfileSet, error) {
	ps := &ProfileSet{}
	d := decoder{cursor: cursor{data: data}, g: g, ops: map[string]string{}, sink: (*keptRanks)(ps)}
	if err := d.document(ps); err != nil {
		return nil, err
	}
	return ps, nil
}

// ReadProfileSet is DecodeProfileSet for a consumer that needs each rank
// once: the same reader — it accepts and refuses the same bytes with the
// same messages — decoding every rank into one scratch profile it hands
// to sink and then reuses, so a set costs one rank's memory however many
// it holds. A nil sink validates the ranks and drops them. The returned
// set is the envelope: its Profiles is nil.
func ReadProfileSet(data []byte, g *psg.Graph, sink RankSink) (ProfileSet, error) {
	d := decoder{cursor: cursor{data: data}, g: g, ops: map[string]string{}, sink: sink, scratch: NewRankProfile(g, 0, 0)}
	var ps ProfileSet
	err := d.document(&ps)
	return ps, err
}

// PeekEnvelope reads the two top-level fields that route an upload —
// which app's graph to decode against, and the scale to file it under —
// validating everything else without decoding it. It is DecodeProfileSet's
// own top-level loop with the other fields skipped, so for any input both
// accept, the full decode yields this App and this NP.
func PeekEnvelope(data []byte) (app string, np int, err error) {
	d := decoder{cursor: cursor{data: data}, envelopeOnly: true}
	var ps ProfileSet
	err = d.document(&ps)
	return ps.App, ps.NP, err
}

// document reads the whole input as one profile set.
func (d *decoder) document(ps *ProfileSet) error {
	if err := d.set(ps); err != nil {
		return err
	}
	if d.next(); d.pos != len(d.data) {
		return d.fail("unexpected data after the profile set")
	}
	return nil
}

func (d *decoder) set(ps *ProfileSet) error {
	if null, err := d.begin('{'); null || err != nil {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if !ok {
			return err
		}
		name := fieldName(setFields, key)
		if d.envelopeOnly && name != "app" && name != "np" {
			name = ""
		}
		switch name {
		case "app":
			s, null, e := d.readText()
			if err = e; err == nil && !null {
				ps.App = string(s)
			}
		case "np":
			err = d.readInt(&ps.NP)
		case "elapsed":
			err = d.readFloat(&ps.Elapsed)
		case "profiles":
			err = d.profiles()
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) profiles() error {
	if d.sink != nil {
		d.sink.Reset()
	}
	if null, err := d.begin('['); null || err != nil {
		return err
	}
	for first := true; ; first = false {
		if more, err := d.more(']', first); !more {
			return err
		}
		null, err := d.begin('{')
		if err != nil {
			return err
		}
		if null {
			return fmt.Errorf("profile set has a null rank profile")
		}
		rp, err := d.rank()
		if err != nil {
			return err
		}
		if d.sink != nil {
			if err := d.sink.Add(rp); err != nil {
				return err
			}
		}
	}
}

// rankFaults collects what is structurally wrong inside a rank object.
// The message names the rank, which may be the object's last field, so
// each fault waits — as the text after "rank N profile " — for the
// object to close; a field that is given again drops the fault its first
// value raised. Records themselves are never buffered.
type rankFaults struct {
	vertex, comm, indirect string
	// nulls lists the vertices whose record is currently null.
	nulls []psg.VID
}

func unknownVertex(key string) string {
	return fmt.Sprintf("names vertex %q, which the compiled graph does not contain (profile/app mismatch?)", key)
}

// rank reads one rank object, the cursor just past its opening brace,
// into the scratch profile — emptied first, so a field this rank leaves
// out is not the previous rank's — or into a fresh one.
func (d *decoder) rank() (*RankProfile, error) {
	rp := d.scratch
	if rp == nil {
		rp = NewRankProfile(d.g, 0, 0)
	} else {
		rp.Rank, rp.NP, rp.Comm = 0, 0, rp.Comm[:0]
		clear(rp.Vertex)
		clear(rp.Indirect)
	}
	var faults rankFaults
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		switch fieldName(rankFields, key) {
		case "rank":
			err = d.readInt(&rp.Rank)
		case "np":
			err = d.readInt(&rp.NP)
		case "vertex":
			err = d.vertices(rp, &faults)
		case "comm":
			err = d.comm(rp, &faults)
		case "indirect":
			err = d.indirect(rp, &faults)
		default:
			err = d.skip()
		}
		if err != nil {
			return nil, err
		}
	}
	var nullRecord string
	if len(faults.nulls) > 0 {
		nullRecord = fmt.Sprintf("has a null record for vertex %q", d.g.KeyOf(faults.nulls[0]))
	}
	if fault := cmp.Or(faults.vertex, nullRecord, faults.comm, faults.indirect); fault != "" {
		return nil, fmt.Errorf("rank %d profile %s", rp.Rank, fault)
	}
	return rp, nil
}

// vertices reads the "vertex" object straight into rp.Vertex. A repeated
// "vertex" field merges into what the first one wrote, key by key, and a
// null one forgets it all — what decoding twice into one map did.
func (d *decoder) vertices(rp *RankProfile, faults *rankFaults) error {
	switch null, err := d.begin('{'); {
	case err != nil:
		return err
	case null:
		clear(rp.Vertex)
		faults.vertex, faults.nulls = "", nil
		return nil
	}
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if !ok {
			return err
		}
		vid, known := d.g.VIDOfBytes(key)
		if !known && faults.vertex == "" {
			faults.vertex = unknownVertex(string(key))
		}
		// The record is type-checked even under an unknown key.
		var pd PerfData
		nullRecord, err := d.perfData(&pd)
		if err != nil {
			return err
		}
		if !known {
			continue
		}
		rp.Vertex[vid] = pd
		at := slices.Index(faults.nulls, vid)
		switch {
		case nullRecord && at < 0:
			faults.nulls = append(faults.nulls, vid)
		case !nullRecord && at >= 0:
			faults.nulls = slices.Delete(faults.nulls, at, at+1)
		}
	}
}

func (d *decoder) perfData(pd *PerfData) (null bool, err error) {
	if null, err = d.begin('{'); null || err != nil {
		return null, err
	}
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if !ok {
			return false, err
		}
		switch fieldName(perfFields, key) {
		case "Samples":
			err = d.readInt64(&pd.Samples)
		case "Time":
			err = d.readFloat(&pd.Time)
		case "PMU":
			err = d.pmu(&pd.PMU)
		default:
			err = d.skip()
		}
		if err != nil {
			return false, err
		}
	}
}

// pmu reads the counter array the way encoding/json fills a fixed-size
// array: elements past the end are skipped, missing ones are zeroed.
func (d *decoder) pmu(v *machine.Vec) error {
	if null, err := d.begin('['); null || err != nil {
		return err
	}
	i := 0
	for ; ; i++ {
		if more, err := d.more(']', i == 0); !more {
			if err != nil {
				return err
			}
			break
		}
		var err error
		if i < len(v) {
			err = d.readFloat(&v[i])
		} else {
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
	for ; i < len(v); i++ {
		v[i] = 0
	}
	return nil
}

// comm reads the "comm" array into rp.Comm. A writer emits records in
// canonical order with no key twice, which one comparison a record
// confirms; any other input is sorted — stably, so that among records
// sharing a key the last one read wins, as it did when records were filed
// in a map.
func (d *decoder) comm(rp *RankProfile, faults *rankFaults) error {
	rp.Comm = rp.Comm[:0]
	faults.comm = ""
	if null, err := d.begin('['); null || err != nil {
		return err
	}
	keys := d.g.Keys()
	ordered := true
	for first := true; ; first = false {
		more, err := d.more(']', first)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		fault, err := d.commRecord(rp)
		if err != nil {
			return err
		}
		if faults.comm == "" {
			faults.comm = fault
		}
		if n := len(rp.Comm); ordered && fault == "" && n > 1 {
			ordered = commKeyLess(keys, &rp.Comm[n-2].CommKey, &rp.Comm[n-1].CommKey)
		}
	}
	if !ordered {
		sortComm(keys, rp.Comm)
		kept := rp.Comm[:1]
		for _, rec := range rp.Comm[1:] {
			if last := &kept[len(kept)-1]; commKeyLess(keys, &last.CommKey, &rec.CommKey) {
				kept = append(kept, rec)
			} else {
				*last = rec
			}
		}
		rp.Comm = kept
	}
	return nil
}

// commRecord reads one communication record and appends it to rp.Comm
// as soon as the object closes. Vertex keys resolve as they are
// read; a key the graph lacks comes back as the record's fault.
func (d *decoder) commRecord(rp *RankProfile) (fault string, err error) {
	switch null, err := d.begin('{'); {
	case err != nil:
		return "", err
	case null:
		return "has a null communication record", nil
	}
	// An absent or empty DepVertex is "no responsible vertex". A key the
	// graph lacks is kept (copied) for the fault message.
	var rec CommRecord
	var vertexKey, depKey string
	vertexGiven, vertexKnown, depKnown := false, false, true
	rec.DepVID = psg.VIDNone
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil {
			return "", err
		}
		if !ok {
			break
		}
		switch fieldName(commFields, key) {
		case "VertexKey":
			s, null, e := d.readText()
			if err = e; err == nil && !null {
				vertexGiven = true
				if rec.VID, vertexKnown = d.g.VIDOfBytes(s); !vertexKnown {
					vertexKey = string(s)
				}
			}
		case "DepVertex":
			s, null, e := d.readText()
			if err = e; err == nil && !null {
				rec.DepVID, depKnown = psg.VIDNone, true
				if len(s) > 0 {
					if rec.DepVID, depKnown = d.g.VIDOfBytes(s); !depKnown {
						depKey = string(s)
					}
				}
			}
		case "Op":
			s, null, e := d.readText()
			if err = e; err == nil && !null {
				op, ok := d.ops[string(s)]
				if !ok {
					op = string(s)
					d.ops[op] = op
				}
				rec.Op = op
			}
		case "DepRank":
			err = d.readInt(&rec.DepRank)
		case "Tag":
			err = d.readInt(&rec.Tag)
		case "Bytes":
			err = d.readFloat(&rec.Bytes)
		case "Collective":
			err = d.readBool(&rec.Collective)
		case "Count":
			err = d.readInt64(&rec.Count)
		case "TotalWait":
			err = d.readFloat(&rec.TotalWait)
		case "MaxWait":
			err = d.readFloat(&rec.MaxWait)
		default:
			err = d.skip()
		}
		if err != nil {
			return "", err
		}
	}
	if !vertexGiven {
		// An absent VertexKey is the empty key, looked up like any other.
		rec.VID, vertexKnown = d.g.VIDOf("")
	}
	switch {
	case !vertexKnown:
		return unknownVertex(vertexKey), nil
	case !depKnown:
		return unknownVertex(depKey), nil
	}
	rp.Comm = append(rp.Comm, rec)
	return "", nil
}

func (d *decoder) indirect(rp *RankProfile, faults *rankFaults) error {
	clear(rp.Indirect)
	faults.indirect = ""
	if null, err := d.begin('['); null || err != nil {
		return err
	}
	for first := true; ; first = false {
		if more, err := d.more(']', first); !more {
			return err
		}
		null, err := d.indirectRecord(rp)
		if err != nil {
			return err
		}
		if null {
			faults.indirect = "has a null indirect-call record"
		}
	}
}

func (d *decoder) indirectRecord(rp *RankProfile) (null bool, err error) {
	if null, err = d.begin('{'); null || err != nil {
		return null, err
	}
	rec := &IndirectRecord{}
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil {
			return false, err
		}
		if !ok {
			break
		}
		switch fieldName(indirectFields, key) {
		case "InstancePath":
			s, null, e := d.readText()
			if err = e; err == nil && !null {
				rec.InstancePath = string(s)
			}
		case "Target":
			s, null, e := d.readText()
			if err = e; err == nil && !null {
				rec.Target = string(s)
			}
		case "Site":
			site := int(rec.Site)
			err = d.readInt(&site)
			rec.Site = minilang.NodeID(site)
		case "Count":
			err = d.readInt64(&rec.Count)
		default:
			err = d.skip()
		}
		if err != nil {
			return false, err
		}
	}
	rp.setIndirect(indirectKey(rec.InstancePath, rec.Site, rec.Target), rec)
	return false, nil
}
