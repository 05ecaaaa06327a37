package prof

// JSON wire format, write side. This is one of the two places where
// stable string vertex keys survive the VID interning refactor (the other
// is report rendering): profiles on disk must outlive the process whose
// symbol table assigned the VIDs, so every VID converts back to its
// interned key on the way out and re-interns on the way in (decode.go).
// The byte format is unchanged from the pre-VID representation — profile
// directories written by older builds still load.

import (
	"encoding/json"
	"fmt"
	"os"

	"scalana/internal/psg"
)

// ProfileSet is the serialized output of one scalana-prof run: all rank
// profiles for one app at one scale.
type ProfileSet struct {
	App      string         `json:"app"`
	NP       int            `json:"np"`
	Elapsed  float64        `json:"elapsed"`
	Profiles []*RankProfile `json:"profiles"`
}

// rankProfileDTO flattens the dense VID-indexed storage back to the
// string-keyed maps of the wire format.
type rankProfileDTO struct {
	Rank   int                  `json:"rank"`
	NP     int                  `json:"np"`
	Vertex map[string]*PerfData `json:"vertex"`
	Comm   []*commRecordDTO     `json:"comm"`
	// Indirect is always null: a run records no indirect-call resolution
	// (DESIGN.md §1). The key stays so every set keeps its bytes and its
	// store address.
	Indirect []struct{} `json:"indirect"`
}

// commRecordDTO is one communication record on the wire; field names and
// order reproduce the pre-VID CommRecord layout exactly.
type commRecordDTO struct {
	VertexKey  string
	Op         string
	DepRank    int
	DepVertex  string
	Tag        int
	Bytes      float64
	Collective bool
	Count      int64
	TotalWait  float64
	MaxWait    float64
}

// MarshalJSON serializes with deterministic ordering, converting interned
// VIDs back to stable string keys.
func (rp *RankProfile) MarshalJSON() ([]byte, error) {
	if rp.Graph == nil {
		return nil, fmt.Errorf("prof: rank %d profile has no symbol table (RankProfile.Graph is nil)", rp.Rank)
	}
	keys := rp.Graph.Keys()
	keyOf := func(vid psg.VID) (string, error) {
		if int(vid) >= len(keys) {
			return "", fmt.Errorf("prof: rank %d profile references VID %d outside the symbol table (%d entries)", rp.Rank, vid, len(keys))
		}
		return keys[vid], nil
	}

	dto := rankProfileDTO{Rank: rp.Rank, NP: rp.NP, Vertex: make(map[string]*PerfData, len(rp.Vertex))}
	for i := range rp.Vertex {
		if !rp.Vertex[i].Active() {
			continue
		}
		key, err := keyOf(psg.VID(i))
		if err != nil {
			return nil, err
		}
		dto.Vertex[key] = &rp.Vertex[i]
	}
	// Comm is kept in wire order (the order is verified, not re-derived:
	// a profile sorted by anything but commKeyLess must not reach disk),
	// so the record list is one pass over it.
	if err := rp.CheckComm(keys); err != nil {
		return nil, err
	}
	recs := make([]commRecordDTO, len(rp.Comm))
	if len(recs) > 0 {
		dto.Comm = make([]*commRecordDTO, len(recs))
	}
	for i := range rp.Comm {
		rec := &rp.Comm[i]
		dep := ""
		if rec.DepVID != psg.VIDNone {
			dep = keys[rec.DepVID]
		}
		recs[i] = commRecordDTO{
			VertexKey: keys[rec.VID], Op: rec.Op.String(), DepRank: rec.DepRank, DepVertex: dep,
			Tag: rec.Tag, Bytes: rec.Bytes, Collective: rec.Collective,
			Count: rec.Count, TotalWait: rec.TotalWait, MaxWait: rec.MaxWait,
		}
		dto.Comm[i] = &recs[i]
	}
	return json.Marshal(dto)
}

// Encode serializes the profile set to the JSON wire format — exactly
// the bytes Save writes.
func (ps *ProfileSet) Encode() ([]byte, error) {
	return json.MarshalIndent(ps, "", " ")
}

// EncodeProfileSet is the package-level spelling of Encode, the inverse
// of DecodeProfileSet. The pair is the service wire contract:
// scalana-serve accepts exactly these bytes as uploads and the
// content-addressed store preserves them byte-for-byte.
func EncodeProfileSet(ps *ProfileSet) ([]byte, error) {
	if ps == nil {
		return nil, fmt.Errorf("prof: EncodeProfileSet: nil profile set")
	}
	return ps.Encode()
}

// Save writes the profile set to a JSON file.
func (ps *ProfileSet) Save(path string) error {
	data, err := ps.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
