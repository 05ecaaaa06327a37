package prof

// decodeOracle is the decoder DecodeProfileSet had until the single-pass
// reader in decode.go replaced it: encoding/json into string-keyed DTOs,
// then a re-interning pass. It is kept, verbatim, as the reference the
// differential test and FuzzDecodeVsOracle hold the reader to. One thing
// changed with RankProfile.Comm: the records still meet in a map keyed by
// CommKey, and the map is then flattened into the canonical-order slice.

import (
	"encoding/json"
	"fmt"
	"sort"

	"scalana/internal/psg"
)

// fromDTO re-interns a wire profile against g's symbol table.
func (dto *rankProfileDTO) fromDTO(g *psg.Graph) (*RankProfile, error) {
	rp := NewRankProfile(g, dto.Rank, dto.NP)
	vidOf := func(key string) (psg.VID, error) {
		vid, ok := g.VIDOf(key)
		if !ok {
			return 0, fmt.Errorf("rank %d profile names vertex %q, which the compiled graph does not contain (profile/app mismatch?)", dto.Rank, key)
		}
		return vid, nil
	}
	vkeys := make([]string, 0, len(dto.Vertex))
	for key := range dto.Vertex {
		vkeys = append(vkeys, key)
	}
	sort.Strings(vkeys)
	for _, key := range vkeys {
		vid, err := vidOf(key)
		if err != nil {
			return nil, err
		}
		pd := dto.Vertex[key]
		if pd == nil {
			return nil, fmt.Errorf("rank %d profile has a null record for vertex %q", dto.Rank, key)
		}
		rp.Vertex[vid] = *pd
	}
	// Records are filed under their CommKey, so of two that share one the
	// later wins, key bits included (a map assignment rewrites a key that
	// holds a float: -0 replaces 0); the survivors then take the order
	// RankProfile.Comm is kept in.
	comm := map[CommKey]*CommRecord{}
	for _, rec := range dto.Comm {
		if rec == nil {
			return nil, fmt.Errorf("rank %d profile has a null communication record", dto.Rank)
		}
		vid, err := vidOf(rec.VertexKey)
		if err != nil {
			return nil, err
		}
		dep := psg.VIDNone
		if rec.DepVertex != "" {
			if dep, err = vidOf(rec.DepVertex); err != nil {
				return nil, err
			}
		}
		key := CommKey{
			VID: vid, Op: rec.Op, DepRank: rec.DepRank, DepVID: dep,
			Tag: rec.Tag, Bytes: rec.Bytes, Collective: rec.Collective,
		}
		comm[key] = &CommRecord{CommKey: key, Count: rec.Count, TotalWait: rec.TotalWait, MaxWait: rec.MaxWait}
	}
	for _, rec := range comm {
		rp.Comm = append(rp.Comm, *rec)
	}
	sortComm(g.Keys(), rp.Comm)
	for _, rec := range dto.Indirect {
		if rec == nil {
			return nil, fmt.Errorf("rank %d profile has a null indirect-call record", dto.Rank)
		}
		rp.setIndirect(indirectKey(rec.InstancePath, rec.Site, rec.Target), rec)
	}
	return rp, nil
}

// profileSetDTO is the wire form of a ProfileSet.
type profileSetDTO struct {
	App      string            `json:"app"`
	NP       int               `json:"np"`
	Elapsed  float64           `json:"elapsed"`
	Profiles []*rankProfileDTO `json:"profiles"`
}

// decodeOracle parses wire-format bytes the way DecodeProfileSet did
// before decode.go.
func decodeOracle(data []byte, g *psg.Graph) (*ProfileSet, error) {
	var dto profileSetDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return nil, fmt.Errorf("parse profile set: %w", err)
	}
	ps := &ProfileSet{App: dto.App, NP: dto.NP, Elapsed: dto.Elapsed}
	for _, pdto := range dto.Profiles {
		if pdto == nil {
			return nil, fmt.Errorf("profile set has a null rank profile")
		}
		rp, err := pdto.fromDTO(g)
		if err != nil {
			return nil, err
		}
		ps.Profiles = append(ps.Profiles, rp)
	}
	return ps, nil
}
