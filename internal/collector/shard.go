package collector

import (
	"slices"
	"sync"
	"time"

	"starlinkview/internal/dataset"
	"starlinkview/internal/stats"
	"starlinkview/internal/trace"
)

// extKey groups browsing records the way the batch pipeline's city table
// does: by city and ISP class.
type extKey struct {
	City, ISP string
}

// extAgg is the streaming aggregate for one (city, ISP) group. Counts,
// sums and the domain set are exact; percentiles come from the sketch.
// domains lists the distinct domains in first-seen order and is only ever
// appended to, so a snapshot can share a prefix of it instead of copying
// (shard.snapshot). seen, sparse and extra are the membership set behind
// it, private to the owner. seen is a bitset over the ids of the
// aggregator's interner and sparse holds, sorted, the ids past its end:
// the bitset only grows while it stays within seenWordsPerDomain words per
// domain, so a group of a few late-numbered domains keeps a short list
// rather than a long, nearly empty bitset. extra holds the strings that
// interner refused — made only when one arrives.
type extAgg struct {
	seen    []uint64
	sparse  []uint32
	extra   map[string]struct{}
	domains []string
	ptt     *stats.QuantileSketch
}

// seenWordsPerDomain bounds a group's bitset at 64 B per domain it lists,
// about what a string-keyed map entry cost. Since ids stay below
// MaxInternedStrings, no bitset passes maxSeenWords, 16 KiB.
const (
	seenWordsPerDomain = 8
	maxSeenWords       = dataset.MaxInternedStrings / 64
)

func newExtAgg(ptt *stats.QuantileSketch) *extAgg {
	return &extAgg{ptt: ptt}
}

// addDomain adds d, whose id in the aggregator's interner is id, to the
// group's set. Every caller keys by that one interner, so equal domains
// carry equal ids and a refused one (NoID) never has an id.
func (g *extAgg) addDomain(d string, id uint32) {
	if id == dataset.NoID {
		if _, ok := g.extra[d]; ok {
			return
		}
		if g.extra == nil {
			g.extra = make(map[string]struct{})
		}
		g.extra[d] = struct{}{}
	} else if w, bit := int(id/64), uint64(1)<<(id%64); w < len(g.seen) {
		if g.seen[w]&bit != 0 {
			return
		}
		g.seen[w] |= bit
	} else if !g.addPast(id) {
		return
	}
	g.domains = append(g.domains, d)
}

// addPast adds id, which lies past the bitset's end, and reports whether
// it is new. The bitset lengthens over id when its capacity already holds
// the word or a new one stays within seenWordsPerDomain words per domain
// (capacity at least doubling), and takes in the sparse ids it then
// covers; otherwise id joins sparse. Words past the length were never
// written, so a reslice within the capacity finds them zero.
func (g *extAgg) addPast(id uint32) bool {
	i, ok := slices.BinarySearch(g.sparse, id)
	if ok {
		return false
	}
	w := int(id / 64)
	if w >= cap(g.seen) {
		limit := min(seenWordsPerDomain*(len(g.domains)+1), maxSeenWords)
		if w >= limit {
			g.sparse = slices.Insert(g.sparse, i, id)
			return true
		}
		s := make([]uint64, len(g.seen), min(max(2*cap(g.seen), w+1), limit))
		copy(s, g.seen)
		g.seen = s
	}
	g.seen = g.seen[:w+1]
	g.seen[w] |= 1 << (id % 64)
	n, _ := slices.BinarySearch(g.sparse, uint32(w+1)*64)
	for _, x := range g.sparse[:n] {
		g.seen[x/64] |= 1 << (x % 64)
	}
	g.sparse = slices.Delete(g.sparse, 0, n)
	return true
}

// shard owns one partition of the aggregate state. Only its goroutine
// touches ext, and its bounded ch is its one input: batch slices and marks
// alike, handled in the order they were queued, so a read (a mark) covers
// every offer that returned before it was asked for. Its counters are
// children of the aggregator's metrics registry — the same series /metrics
// exposes — so /stats is derived, not duplicated.
type shard struct {
	id         int
	ch         chan item
	relErr     float64
	applyDelay time.Duration
	tracer     *trace.Tracer

	met shardMetrics

	ext map[extKey]*extAgg
}

func newShard(id int, cfg Config, m *metrics) *shard {
	return &shard{
		id:         id,
		ch:         make(chan item, cfg.QueueLen),
		relErr:     cfg.SketchRelErr,
		applyDelay: cfg.applyDelay,
		tracer:     cfg.Tracer,
		met:        m.shard(id),
		ext:        make(map[extKey]*extAgg),
	}
}

// run is the shard goroutine: apply batch slices and pass marks in queue
// order, and on channel close drain whatever is left before exiting. By the
// time it reaches a mark it has applied everything queued before it, so
// that is where it writes its snapshot into the mark's slot, if the mark
// has slots, before counting itself passed.
func (s *shard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for it := range s.ch {
		if it.kind == itemBatch {
			s.applyBatch(it)
			continue
		}
		m := it.batch
		if m.snaps != nil {
			m.snaps[s.id] = s.snapshot()
		}
		m.passed.Done()
	}
}

// applyBatch applies one partition of a shared batch view: every row keyed
// to this shard, laid out (city, ISP) group by group with each group's rows
// in ascending row order — the order the view holds them in, so a group's
// aggregate does not depend on how many shards share the view — then
// releases this shard's reference on the view. One latency observation and
// at most one span cover the whole slice. A group's rows arrive back to
// back, so the group is looked up once per view and its sketch and domain
// set stay in cache while its rows are applied; a row starts a new group
// when its city or ISP dictionary entry differs from the row before.
func (s *shard) applyBatch(it item) {
	v := it.batch.view
	var sp *trace.Span
	if it.span.Valid() {
		sp = s.tracer.StartChildAt(it.span, "shard.apply", it.enqueued)
		sp.SetInt("shard", int64(s.id))
		sp.SetInt("records", int64(len(it.rows)))
		s.met.applyLatency.ObserveExemplar(time.Since(it.enqueued).Seconds(), it.span.Trace.String())
	} else {
		s.met.applyLatency.Observe(time.Since(it.enqueued).Seconds())
	}
	var lastCity, lastISP uint32
	var g *extAgg
	for _, ri := range it.rows {
		if s.applyDelay > 0 {
			time.Sleep(s.applyDelay)
		}
		i := int(ri)
		if c, p := v.CityEntry(i), v.ISPEntry(i); g == nil || c != lastCity || p != lastISP {
			lastCity, lastISP = c, p
			city, isp := v.City(i), v.ISP(i)
			g = s.ext[extKey{city, isp}]
			if g == nil {
				ptt, _ := stats.NewQuantileSketch(s.relErr)
				g = newExtAgg(ptt)
				s.ext[extKey{city, isp}] = g
				s.met.groups.Set(float64(len(s.ext)))
			}
		}
		g.addDomain(v.Domain(i), v.DomainID(i))
		g.ptt.Add(v.PTTMs(i))
	}
	s.met.processed.Add(uint64(len(it.rows)))
	sp.Finish()
	it.batch.done()
}

// stats reads the shard's counters from the registry children. Safe from
// any goroutine; latency percentiles interpolate the apply-latency
// histogram's buckets (microseconds, matching the historical JSON shape).
func (s *shard) stats() ShardStats {
	return ShardStats{
		Shard:       s.id,
		Accepted:    s.met.accepted.Value(),
		Dropped:     s.met.dropped.Value(),
		Processed:   s.met.processed.Value(),
		Groups:      int(s.met.groups.Value()),
		QueueLen:    len(s.ch),
		IngestP50Us: nanZero(s.met.applyLatency.Quantile(0.50) * 1e6),
		IngestP95Us: nanZero(s.met.applyLatency.Quantile(0.95) * 1e6),
		IngestP99Us: nanZero(s.met.applyLatency.Quantile(0.99) * 1e6),
	}
}

// extSnap is one (city, ISP) group as a snapshot holds it: the group's
// distinct domains and a sketch that no longer changes.
type extSnap struct {
	extKey
	domains []string
	ptt     *stats.QuantileSketch
}

// shardSnap is a consistent view of one shard's state, safe to merge and
// read outside the shard goroutine.
type shardSnap struct {
	stats ShardStats
	ext   []extSnap
}

// snapshot captures the shard between two applies. Sketches are cloned;
// domain lists are not. The view takes each list's length-capped prefix
// list[:n:n], and the shard only ever writes a list at index n or beyond,
// or into a fresh array when an append outgrows the old one, so the n
// strings the view sees are never written again. The mark that carries the
// view orders the shard's earlier writes before any read of it: the shard
// stores the view and then counts itself passed, and the reader reads only
// after it has waited for every shard to pass.
func (s *shard) snapshot() shardSnap {
	snap := shardSnap{
		stats: s.stats(),
		ext:   make([]extSnap, 0, len(s.ext)),
	}
	for k, g := range s.ext {
		n := len(g.domains)
		snap.ext = append(snap.ext, extSnap{extKey: k, domains: g.domains[:n:n], ptt: g.ptt.Clone()})
	}
	return snap
}
