package prof

// oracleProfiler is the hook Profiler was until dense per-rank tables
// replaced its hash maps: one map lookup on the full CommKey per sampled
// event, a request-converter map, and a sampling timer of its own — an
// mpisim.AdvanceObserver that sums the pending counters and works out the
// period crossings on every advance, where Profiler is handed both by the
// rank's timer. Advance and MPIEvent are kept verbatim as the reference
// the differential test in profiler_apps_test.go holds Profiler to — the
// two must write byte-identical profile sets. Only Profile is new: it
// flattens the map into the canonical-order slice RankProfile.Comm became.

import (
	"math/rand"

	"scalana/internal/machine"
	"scalana/internal/minilang"
	"scalana/internal/mpisim"
	"scalana/internal/psg"
)

type oracleProfiler struct {
	cfg     Config
	profile *RankProfile
	comm    map[CommKey]*CommRecord

	period     float64
	lastBucket int64
	pendingPMU machine.Vec
	rng        *rand.Rand

	requestConverter map[int]srcTag
}

type srcTag struct {
	src int
	tag int
}

func newOracleProfiler(cfg Config, graph *psg.Graph, rank, np int) *oracleProfiler {
	if cfg.SampleHz <= 0 {
		cfg.SampleHz = DefaultConfig().SampleHz
	}
	return &oracleProfiler{
		cfg:              cfg,
		profile:          NewRankProfile(graph, rank, np),
		comm:             map[CommKey]*CommRecord{},
		period:           1 / cfg.SampleHz,
		requestConverter: map[int]srcTag{},
	}
}

func (pr *oracleProfiler) sampleRand() float64 {
	if pr.rng == nil {
		pr.rng = rand.New(rand.NewSource(pr.cfg.Seed*31 + int64(pr.profile.Rank)*2654435761 + 17))
	}
	return pr.rng.Float64()
}

// Profile returns the collected profile with the records in canonical
// order.
func (pr *oracleProfiler) Profile() *RankProfile {
	pr.profile.Comm = pr.profile.Comm[:0]
	for _, rec := range pr.comm {
		pr.profile.Comm = append(pr.profile.Comm, *rec)
	}
	sortComm(pr.profile.Graph.Keys(), pr.profile.Comm)
	return pr.profile
}

func (pr *oracleProfiler) perf(vid psg.VID) *PerfData { return &pr.profile.Vertex[vid] }

func (pr *oracleProfiler) Advance(p *mpisim.Proc, from, to float64, kind mpisim.AdvanceKind, ctx any, pmu machine.Vec) float64 {
	pr.pendingPMU.Add(pmu)
	bucket := int64(to / pr.period)
	crossings := bucket - pr.lastBucket
	pr.lastBucket = bucket
	if crossings <= 0 {
		return 0
	}
	pd := pr.perf(ctxVID(ctx))
	pd.Samples += crossings
	pd.Time += float64(crossings) * pr.period
	pd.PMU.Add(pr.pendingPMU)
	pr.pendingPMU = machine.Vec{}
	pr.profile.SamplesTaken += crossings
	if kind == mpisim.AdvPerturb {
		return 0
	}
	return float64(crossings) * pr.cfg.SampleCost
}

func (pr *oracleProfiler) MPIEvent(p *mpisim.Proc, ev *mpisim.Event) float64 {
	pr.profile.EventsSeen++

	switch ev.Kind {
	case mpisim.EvIrecv:
		pr.requestConverter[ev.ReqID] = srcTag{src: ev.Peer, tag: ev.Tag}
		return 0 // dependence is recorded at completion time
	case mpisim.EvIsend:
		return 0
	case mpisim.EvWait:
		if st, ok := pr.requestConverter[ev.ReqID]; ok {
			delete(pr.requestConverter, ev.ReqID)
			if st.src == mpisim.AnySource {
				// Source was uncertain; use the completed status.
				st.src = ev.Peer
			}
		}
	}

	if pr.cfg.CommSampleProb < 1 && pr.sampleRand() >= pr.cfg.CommSampleProb {
		return 0
	}
	pr.profile.EventsSampled++

	key := CommKey{
		VID:        ctxVID(ev.Ctx),
		Op:         ev.Op,
		DepRank:    ev.DepRank,
		DepVID:     ctxVID(ev.DepCtx),
		Tag:        ev.Tag,
		Bytes:      ev.Bytes,
		Collective: ev.Collective,
	}
	if ev.DepCtx == nil {
		key.DepVID = psg.VIDNone
	}
	if !pr.cfg.Compress {
		// Without graph-guided compression every record is unique.
		key.Tag = int(pr.profile.EventsSampled)<<8 | key.Tag
	}
	rec := pr.comm[key]
	if rec == nil {
		rec = &CommRecord{CommKey: key}
		pr.comm[key] = rec
	}
	rec.Count++
	rec.TotalWait += ev.Wait
	if ev.Wait > rec.MaxWait {
		rec.MaxWait = ev.Wait
	}
	return pr.cfg.CommRecordCost
}

func (pr *oracleProfiler) ObserveIndirect(rank int, inst *psg.Instance, site minilang.NodeID, target string) {
	key := indirectKey(inst.Path, site, target)
	rec := pr.profile.Indirect[key]
	if rec == nil {
		rec = &IndirectRecord{InstancePath: inst.Path, Site: site, Target: target}
		pr.profile.setIndirect(key, rec)
	}
	rec.Count++
}

var _ mpisim.Hook = (*oracleProfiler)(nil)
