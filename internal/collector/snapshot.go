package collector

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/stats"
)

// ShardStats are one shard's ingest counters. Ingest latency is the time a
// record spent queued before its shard applied it.
type ShardStats struct {
	Shard       int     `json:"shard"`
	Accepted    uint64  `json:"accepted"`
	Dropped     uint64  `json:"dropped"`
	Processed   uint64  `json:"processed"`
	Groups      int     `json:"groups"`
	QueueLen    int     `json:"queue_len"`
	IngestP50Us float64 `json:"ingest_p50_us"`
	IngestP95Us float64 `json:"ingest_p95_us"`
	IngestP99Us float64 `json:"ingest_p99_us"`
}

// GroupRow is the streamed aggregate for one (city, ISP) browsing group.
type GroupRow struct {
	City      string  `json:"city"`
	ISP       string  `json:"isp"`
	Count     uint64  `json:"count"`
	Domains   int     `json:"domains"`
	MeanPTTMs float64 `json:"mean_ptt_ms"`
	P50PTTMs  float64 `json:"p50_ptt_ms"`
	P95PTTMs  float64 `json:"p95_ptt_ms"`
}

// Snapshot is a merged view of every shard's aggregate state.
type Snapshot struct {
	Groups []GroupRow   `json:"groups"`
	Shards []ShardStats `json:"shards"`

	Accepted  uint64 `json:"accepted"`
	Dropped   uint64 `json:"dropped"`
	Processed uint64 `json:"processed"`

	// merged per-group state retained for CityTable's class-level unions
	// and for ExportState's mergeable wire form, sorted by key.
	ext    []extSnap
	relErr float64
}

func (k extKey) compare(o extKey) int {
	return cmp.Or(strings.Compare(k.City, o.City), strings.Compare(k.ISP, o.ISP))
}

// nanZero keeps JSON encodable: empty-sketch quantiles answer NaN, which
// encoding/json rejects.
func nanZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// encodableMean keeps a rendered mean inside what JSON can carry. A running
// sum can still overflow in state restored from a checkpoint (or a peer)
// that predates ingest's PTT bound: an infinite mean renders as the largest
// float of its sign, and an undefined one as 0.
func encodableMean(v float64) float64 {
	if math.IsInf(v, 0) {
		return math.Copysign(math.MaxFloat64, v)
	}
	return nanZero(v)
}

func mergeSnapshot(parts []shardSnap, relErr float64) *Snapshot {
	s := &Snapshot{relErr: relErr}
	var groups int
	for _, p := range parts {
		groups += len(p.ext)
	}
	s.ext = make([]extSnap, 0, groups)
	for _, p := range parts {
		st := p.stats
		st.IngestP50Us = nanZero(st.IngestP50Us)
		st.IngestP95Us = nanZero(st.IngestP95Us)
		st.IngestP99Us = nanZero(st.IngestP99Us)
		s.Shards = append(s.Shards, st)
		s.Accepted += st.Accepted
		s.Dropped += st.Dropped
		s.Processed += st.Processed
		// A group key lives on exactly one shard, so these never collide.
		s.ext = append(s.ext, p.ext...)
	}
	s.render()
	return s
}

// render sorts the merged groups by key and derives the row views from
// them. Both the shard merge and the cluster merge (MergeStates) finish
// through here, so a merged-across-instances snapshot renders exactly like a
// local one.
func (s *Snapshot) render() {
	slices.SortFunc(s.ext, func(a, b extSnap) int { return a.extKey.compare(b.extKey) })
	// Grow leaves an empty view nil, which the JSON renders as null.
	s.Groups = slices.Grow(s.Groups[:0], len(s.ext))
	for _, g := range s.ext {
		s.Groups = append(s.Groups, GroupRow{
			City:      g.City,
			ISP:       g.ISP,
			Count:     g.ptt.Count(),
			Domains:   len(g.domains),
			MeanPTTMs: encodableMean(g.ptt.Mean()),
			P50PTTMs:  g.ptt.Quantile(0.5),
			P95PTTMs:  g.ptt.Quantile(0.95),
		})
	}
}

// Cities returns the distinct cities seen, sorted — the same set
// extension.Collector.Cities reports for the batch pipeline.
func (s *Snapshot) Cities() []string {
	var out []string
	for _, g := range s.ext {
		if len(out) == 0 || out[len(out)-1] != g.City {
			out = append(out, g.City)
		}
	}
	return out
}

// GroupState is the mergeable wire form of one (city, ISP) aggregate: the
// exact domain set plus the quantile sketch's binary serialisation, so a
// peer that imports it answers every quantile identically to the exporter.
type GroupState struct {
	City    string   `json:"city"`
	ISP     string   `json:"isp"`
	Domains []string `json:"domains"`
	PTT     []byte   `json:"ptt"`
}

// MergeState is a snapshot's complete mergeable state — what one cluster
// instance ships to the peer coordinating a merged query. Unlike the
// rendered Snapshot rows it loses nothing: sketches travel whole, domain
// sets travel whole, so MergeStates over K instances equals a single
// instance that ingested every record.
type MergeState struct {
	RelErr    float64      `json:"rel_err"`
	Accepted  uint64       `json:"accepted"`
	Dropped   uint64       `json:"dropped"`
	Processed uint64       `json:"processed"`
	Groups    []GroupState `json:"groups"`
}

// ExportState renders the snapshot's aggregate state in mergeable wire
// form, deterministically ordered (groups by key, domains sorted).
func (s *Snapshot) ExportState() (MergeState, error) {
	out := MergeState{
		RelErr:   s.relErr,
		Accepted: s.Accepted, Dropped: s.Dropped, Processed: s.Processed,
	}
	var err error
	out.Groups, err = appendStates(make([]GroupState, 0, len(s.ext)), s.ext)
	if err != nil {
		return MergeState{}, err
	}
	return out, nil
}

// appendStates appends ext to groups in wire form, in the order given, with
// each group's domains sorted. ExportState hands it a snapshot's key-sorted
// groups; a checkpoint hands it each shard's groups in whatever order the
// shard held them, since restore does not care.
func appendStates(groups []GroupState, ext []extSnap) ([]GroupState, error) {
	for _, g := range ext {
		blob, err := g.ptt.MarshalBinary()
		if err != nil {
			return nil, err
		}
		groups = append(groups, GroupState{City: g.City, ISP: g.ISP, Domains: sortedDomains(g.domains), PTT: blob})
	}
	return groups, nil
}

// sortedDomains returns a sorted copy of a group's domain list, which may be
// a prefix a shard still appends past and so must not be sorted in place.
func sortedDomains(domains []string) []string {
	out := append(make([]string, 0, len(domains)), domains...)
	slices.Sort(out)
	return out
}

// mergeGroupState decodes one group's wire state into m: a key m lacks gets
// a fresh aggregate around the decoded sketch, a key it holds merges the
// sketch in, and either way the domains are added, keyed by in — the
// interner every other domain of m's groups was keyed by. It returns how
// many records the state carried. Checkpoint restore and MergeStates both
// fold states through it.
func mergeGroupState(m map[extKey]*extAgg, gs GroupState, in *dataset.Interner) (uint64, error) {
	ptt := &stats.QuantileSketch{}
	if err := ptt.UnmarshalBinary(gs.PTT); err != nil {
		return 0, fmt.Errorf("group %s/%s: %w", gs.City, gs.ISP, err)
	}
	k := extKey{gs.City, gs.ISP}
	g := m[k]
	if g == nil {
		g = newExtAgg(ptt)
		m[k] = g
	} else if err := g.ptt.Merge(ptt); err != nil {
		return 0, fmt.Errorf("group %s/%s: %w", gs.City, gs.ISP, err)
	}
	for _, d := range gs.Domains {
		g.addDomain(in.Intern(d))
	}
	return ptt.Count(), nil
}

// MergeStates folds K exported instance states into one Snapshot, as if a
// single instance had ingested every record behind them. Sketch merges are
// exact bucket additions, domain sets union, counters sum — so tables and
// quantiles match a single-instance run bit for bit (per-group means can
// differ only when one group's records were split across instances, and
// then only by float summation order). The same group on two instances comes
// from a membership change or misrouted-then-forwarded traffic. All states
// must share one sketch relative error. An empty input merges to an empty
// snapshot with the default relative error.
func MergeStates(states ...MergeState) (*Snapshot, error) {
	relErr := stats.DefaultSketchRelErr
	if len(states) > 0 {
		relErr = states[0].RelErr
	}
	s := &Snapshot{relErr: relErr}
	ext := make(map[extKey]*extAgg)
	var in dataset.Interner
	for _, st := range states {
		if st.RelErr != relErr {
			return nil, fmt.Errorf("collector: cannot merge states with sketch error %v and %v", st.RelErr, relErr)
		}
		s.Accepted += st.Accepted
		s.Dropped += st.Dropped
		s.Processed += st.Processed
		for _, gs := range st.Groups {
			if _, err := mergeGroupState(ext, gs, &in); err != nil {
				return nil, fmt.Errorf("collector: merge %w", err)
			}
		}
	}
	s.ext = make([]extSnap, 0, len(ext))
	for k, g := range ext {
		s.ext = append(s.ext, extSnap{extKey: k, domains: g.domains, ptt: g.ptt})
	}
	s.render()
	return s, nil
}

// CityTable renders the streamed state as the paper's Table 1 — the same
// rows extension.Collector.CityTable computes in batch. Request and domain
// counts are exact; median PTTs carry the sketch's relative error.
//
// The groups are sorted by city, so each city's groups are one run found by
// binary search, with no pass over the others. A class (Starlink or not)
// with one group answers from that group alone; only a class with several
// builds a domain union and a merged sketch.
func (s *Snapshot) CityTable(cities []string) []extension.TableRow {
	rows := slices.Grow([]extension.TableRow(nil), len(cities))
	var scratch []string
	for _, city := range cities {
		lo, _ := slices.BinarySearchFunc(s.ext, city, func(g extSnap, city string) int {
			return strings.Compare(g.City, city)
		})
		hi := lo
		for hi < len(s.ext) && s.ext[hi].City == city {
			hi++
		}
		row := extension.TableRow{City: city}
		row.StarlinkReqs, row.StarlinkDomains, row.StarlinkMedianPTT = s.classStats(s.ext[lo:hi], true, &scratch)
		row.NonSLReqs, row.NonSLDomains, row.NonSLMedianPTT = s.classStats(s.ext[lo:hi], false, &scratch)
		rows = append(rows, row)
	}
	return rows
}

// classStats answers one city's Starlink (or non-Starlink) class from that
// city's groups: requests, distinct domains and median PTT (NaN with no
// requests). scratch is reused across calls for the domain union.
func (s *Snapshot) classStats(city []extSnap, starlink bool, scratch *[]string) (reqs, domains int, median float64) {
	var first *extSnap
	groups, total := 0, 0
	for i := range city {
		if g := &city[i]; (g.ISP == "starlink") == starlink {
			if groups == 0 {
				first = g
			}
			groups++
			reqs += int(g.ptt.Count())
			total += len(g.domains)
		}
	}
	switch groups {
	case 0:
		return 0, 0, math.NaN()
	case 1:
		return reqs, len(first.domains), first.ptt.Quantile(0.5)
	}
	union := slices.Grow((*scratch)[:0], total)
	merged, _ := stats.NewQuantileSketch(s.relErr)
	for i := range city {
		if g := &city[i]; (g.ISP == "starlink") == starlink {
			union = append(union, g.domains...)
			// Same relative error throughout, so Merge cannot fail.
			_ = merged.Merge(g.ptt)
		}
	}
	slices.Sort(union)
	*scratch = union
	return reqs, len(slices.Compact(union)), merged.Quantile(0.5)
}
