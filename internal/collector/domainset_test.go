package collector

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/obs"
	"starlinkview/internal/trace"
)

// domainRef is the reference every domain set is held to: per (city, ISP)
// group, the plain set of domain strings its records named.
type domainRef map[extKey]map[string]struct{}

func (ref domainRef) add(recs ...extension.Record) {
	for _, r := range recs {
		k := extKey{r.City, r.ISP}
		if ref[k] == nil {
			ref[k] = make(map[string]struct{})
		}
		ref[k][r.Domain] = struct{}{}
	}
}

// check compares st's groups with the reference: the same groups, and for
// each the sorted domain list equal to the reference set, sorted.
func (ref domainRef) check(t *testing.T, label string, st MergeState) {
	t.Helper()
	if len(st.Groups) != len(ref) {
		t.Fatalf("%s: %d groups, want %d", label, len(st.Groups), len(ref))
	}
	for _, g := range st.Groups {
		set, ok := ref[extKey{g.City, g.ISP}]
		if !ok {
			t.Fatalf("%s: unexpected group %s/%s", label, g.City, g.ISP)
		}
		want := make([]string, 0, len(set))
		for d := range set {
			want = append(want, d)
		}
		slices.Sort(want)
		if !slices.Equal(g.Domains, want) {
			t.Fatalf("%s: group %s/%s has %d domains, want %d\n got %q\nwant %q",
				label, g.City, g.ISP, len(g.Domains), len(want), head(g.Domains), head(want))
		}
	}
}

// head is at most the first eight entries of a domain list, for messages.
func head(ds []string) []string { return ds[:min(len(ds), 8)] }

// exportState is a's drained state in wire form.
func exportState(t *testing.T, a *Aggregator) MergeState {
	t.Helper()
	st, err := a.Snapshot().ExportState()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// domainStream draws n records over a few groups from a per-seed domain
// vocabulary, skewed so groups share popular domains and differ in the
// tail, with the empty domain among them.
func domainStream(r *rand.Rand, n int) []extension.Record {
	cities := []string{"London", "Seattle", "Lagos", "Perth"}
	isps := []string{"starlink", "terrestrial"}
	vocab := make([]string, 20+r.Intn(200))
	for i := range vocab {
		vocab[i] = fmt.Sprintf("d%d-%x.example", i, r.Uint32()%64)
	}
	vocab[0] = ""
	base := time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]extension.Record, n)
	for i := range recs {
		d := vocab[r.Intn(len(vocab))]
		if r.Intn(2) == 0 {
			d = vocab[r.Intn(1+len(vocab)/8)]
		}
		recs[i] = extension.Record{
			UserID: fmt.Sprintf("u%d", r.Intn(30)), City: cities[r.Intn(len(cities))],
			Country: "XX", ISP: isps[r.Intn(len(isps))], ASN: 14593,
			At: base.Add(time.Duration(i) * time.Second), Domain: d,
			Rank: r.Intn(5000), PTTMs: float64(20 + r.Intn(900)), PLTMs: 400,
		}
	}
	return recs
}

// TestDomainSetsMatchStringReference runs seeded record streams through
// every path that fills a group's domain set — live batch ingest, a
// checkpoint restored under a replayed tail that names the same domains
// again, MergeStates over per-instance states, views of one frame parsed by
// different pools, and the empty domain — and holds each group's sorted
// domain list to a plain string set.
func TestDomainSetsMatchStringReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			recs := domainStream(r, 3000+r.Intn(3000))
			ref := domainRef{}
			ref.add(recs...)

			t.Run("live", func(t *testing.T) {
				a := NewAggregator(Config{Shards: 4})
				defer a.Close()
				offerFrames(t, a, recs)
				ref.check(t, "live", exportState(t, a))
			})

			t.Run("restore", func(t *testing.T) {
				dir := t.TempDir()
				open := func(dir string) *Aggregator {
					a, err := OpenAggregator(Config{Shards: 3, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: dir}})
					if err != nil {
						t.Fatal(err)
					}
					return a
				}
				a := open(dir)
				cut := len(recs) / 2
				offerFrames(t, a, recs[:cut])
				if err := a.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				// The tail repeats domains the checkpoint already holds.
				offerFrames(t, a, recs[cut:])
				if err := a.SyncWAL(); err != nil {
					t.Fatal(err)
				}
				crash := copyWALDir(t, dir)
				ref.check(t, "before restart", exportState(t, a))
				if err := a.Close(); err != nil {
					t.Fatal(err)
				}
				for _, d := range []string{crash, dir} {
					b := open(d)
					ref.check(t, "restored "+d, exportState(t, b))
					if err := b.Close(); err != nil {
						t.Fatal(err)
					}
				}
			})

			t.Run("merge", func(t *testing.T) {
				insts := []*Aggregator{NewAggregator(Config{Shards: 2}), NewAggregator(Config{Shards: 1}), NewAggregator(Config{Shards: 3})}
				parts := make([][]extension.Record, len(insts))
				for lo := 0; lo < len(recs); {
					hi := min(len(recs), lo+1+r.Intn(400))
					k := r.Intn(len(insts))
					parts[k] = append(parts[k], recs[lo:hi]...)
					lo = hi
				}
				var states []MergeState
				for k, a := range insts {
					offerFrames(t, a, parts[k])
					states = append(states, exportState(t, a))
					a.Close()
				}
				merged, err := MergeStates(states...)
				if err != nil {
					t.Fatal(err)
				}
				st, err := merged.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				ref.check(t, "merged", st)
				// Merging a state with itself adds no domain.
				twice, err := MergeStates(append(states, states...)...)
				if err != nil {
					t.Fatal(err)
				}
				if st, err = twice.ExportState(); err != nil {
					t.Fatal(err)
				}
				ref.check(t, "merged twice", st)
			})

			t.Run("mixed views", func(t *testing.T) {
				frame := dataset.MarshalBatch(recs[:min(len(recs), 2000)])
				fref := domainRef{}
				fref.add(recs[:min(len(recs), 2000)]...)
				a := NewAggregator(Config{Shards: 2})
				defer a.Close()
				// Another pool that has seen other strings first, so its
				// keyed entries are numbered differently from a's.
				var other dataset.ViewPool
				if v, err := other.Parse(dataset.MarshalBatch(domainStream(rand.New(rand.NewSource(seed+100)), 500))); err != nil {
					t.Fatal(err)
				} else {
					other.Put(v)
				}
				parse := []func() (*dataset.BatchView, error){
					func() (*dataset.BatchView, error) { return a.views.Parse(frame) },
					func() (*dataset.BatchView, error) { return dataset.ParseBatchView(frame) },
					func() (*dataset.BatchView, error) { return other.Parse(frame) },
					func() (*dataset.BatchView, error) { return a.views.Parse(frame) },
				}
				for _, p := range parse {
					v, err := p()
					if err != nil {
						t.Fatal(err)
					}
					n := v.Len()
					if acc, _ := a.OfferBatchView(v, trace.SpanContext{}); acc != n {
						t.Fatalf("accepted %d of %d", acc, n)
					}
					fref.check(t, "mixed views", exportState(t, a))
				}
			})

			t.Run("empty domain", func(t *testing.T) {
				empty := domainStream(r, 300)
				for i := range empty {
					if i%3 != 0 {
						empty[i].Domain = ""
					}
				}
				empty[0].City, empty[0].ISP, empty[0].Domain = "Nowhere", "starlink", ""
				eref := domainRef{}
				eref.add(empty...)
				a := NewAggregator(Config{Shards: 2})
				defer a.Close()
				offerFrames(t, a, empty)
				offerFrames(t, a, empty)
				eref.check(t, "empty domain", exportState(t, a))
			})
		})
	}
}

// TestDomainSetsPastInternCap fills an aggregator's intern table to its cap
// and beyond, then applies, checkpoints and restores, into one group, both
// domains the table took before it filled and domains it refused. The group
// sets must equal the string reference live, after a crash restore
// (checkpoint plus replayed tail) and after a clean restart.
func TestDomainSetsPastInternCap(t *testing.T) {
	base := time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)
	rec := func(city, domain string) extension.Record {
		return extension.Record{
			UserID: "u", City: city, Country: "XX", ISP: "starlink", ASN: 14593,
			At: base, Domain: domain, PTTMs: 100, PLTMs: 400,
		}
	}
	named := func(city, prefix string, lo, hi int) []extension.Record {
		var recs []extension.Record
		for i := lo; i < hi; i++ {
			recs = append(recs, rec(city, fmt.Sprintf("%s-%06d", prefix, i)))
		}
		return recs
	}
	early := append(named("Probe", "early", 0, 64), rec("Probe", ""))
	fill := named("Fill", "fill", 0, dataset.MaxInternedStrings+512)
	late := named("Probe", "late", 0, 64)
	mixed := append(append(append([]extension.Record(nil), early...), late...), early[:10]...)
	mixed = append(mixed, late[:10]...)
	tail := append(append(append([]extension.Record(nil), late...), early...), named("Probe", "late2", 0, 32)...)
	tail = append(tail, fill[0], fill[len(fill)-1], rec("Probe", ""))

	ref := domainRef{}
	dir := t.TempDir()
	open := func(dir string) *Aggregator {
		a, err := OpenAggregator(Config{Shards: 2, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: dir}})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a := open(dir)
	for _, recs := range [][]extension.Record{early, fill, mixed} {
		offerFrames(t, a, recs)
		ref.add(recs...)
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	offerFrames(t, a, tail)
	ref.add(tail...)
	if err := a.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	crash := copyWALDir(t, dir)
	ref.check(t, "live", exportState(t, a))
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{crash, dir} {
		b := open(d)
		ref.check(t, "restored "+d, exportState(t, b))
		// The restored table is full again: more refused and known
		// domains land in the same group.
		more := append(named("Probe", "late3", 0, 8), early[:4]...)
		offerFrames(t, b, more)
		again := domainRef{}
		for k, set := range ref {
			again[k] = make(map[string]struct{}, len(set))
			for s := range set {
				again[k][s] = struct{}{}
			}
		}
		again.add(more...)
		again.check(t, "restored then applied "+d, exportState(t, b))
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// footprint is the bytes g's id set takes: the bitset and the sparse list,
// at capacity.
func footprint(g *extAgg) int { return 8*cap(g.seen) + 4*cap(g.sparse) }

// TestDomainSetFootprint adds seeded id streams to one group — a single
// high id, ascending and descending strides, ids spread over the whole
// table, a dense low run — and after every add holds the set to a plain
// id set and the bitset to seenWordsPerDomain words per listed domain,
// with every id past its end in the sorted sparse list.
func TestDomainSetFootprint(t *testing.T) {
	top := uint32(dataset.MaxInternedStrings - 1)
	streams := map[string]func(r *rand.Rand, i int) uint32{
		"high":       func(r *rand.Rand, i int) uint32 { return top },
		"ascending":  func(r *rand.Rand, i int) uint32 { return uint32(i*577) % (top + 1) },
		"descending": func(r *rand.Rand, i int) uint32 { return top - uint32(i*331)%(top+1) },
		"spread":     func(r *rand.Rand, i int) uint32 { return uint32(r.Intn(int(top) + 1)) },
		"dense":      func(r *rand.Rand, i int) uint32 { return uint32(r.Intn(3000)) },
		"mixed": func(r *rand.Rand, i int) uint32 {
			if r.Intn(4) == 0 {
				return top - uint32(r.Intn(64))
			}
			return uint32(r.Intn(5000))
		},
	}
	for name, next := range streams {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			g := newExtAgg(nil)
			want := map[uint32]struct{}{}
			for i := range 3000 {
				id := next(r, i)
				g.addDomain(fmt.Sprint(id), id)
				want[id] = struct{}{}
				if len(g.domains) != len(want) {
					t.Fatalf("add %d (id %d): %d domains, want %d", i, id, len(g.domains), len(want))
				}
				if c := cap(g.seen); c > seenWordsPerDomain*len(g.domains) || c > maxSeenWords {
					t.Fatalf("add %d: bitset of %d words for %d domains", i, c, len(g.domains))
				}
				if !slices.IsSorted(g.sparse) || len(g.sparse) > 0 && int(g.sparse[0]) < 64*len(g.seen) {
					t.Fatalf("add %d: sparse %v past a bitset of %d words", i, head32(g.sparse), len(g.seen))
				}
			}
			for id := range want {
				in := int(id/64) < len(g.seen) && g.seen[id/64]&(1<<(id%64)) != 0
				if _, ok := slices.BinarySearch(g.sparse, id); !in && !ok {
					t.Fatalf("id %d missing", id)
				}
			}
		})
	}
}

// head32 is at most the first eight entries of an id list, for messages.
func head32(ids []uint32) []uint32 { return ids[:min(len(ids), 8)] }

// TestLateDomainInManyGroups fills an aggregator's intern table to within
// a few hundred ids of its cap, then names one domain, so numbered near the
// top, in each of 256 groups. Every group must hold it in at most 64 B,
// where a bitset sized by the id would take 16 KiB.
func TestLateDomainInManyGroups(t *testing.T) {
	const groups = 256
	a := NewAggregator(Config{Shards: 2})
	fillInterner(a.views.Interner(), groups+8)
	base := time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]extension.Record, groups)
	for i := range recs {
		recs[i] = extension.Record{
			UserID: "u", City: fmt.Sprintf("C%03d", i), Country: "XX", ISP: "starlink", ASN: 1,
			At: base, Domain: "late.example", PTTMs: 100, PLTMs: 400,
		}
	}
	offerFrames(t, a, recs)
	if _, id := a.views.Interner().Intern("late.example"); id < dataset.MaxInternedStrings-groups-8 {
		t.Fatalf("domain numbered %d, want one of the last %d ids", id, groups+8)
	}
	ref := domainRef{}
	ref.add(recs...)
	ref.check(t, "late domain", exportState(t, a))
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, sh := range a.shards {
		for k, g := range sh.ext {
			if b := footprint(g); b > 64 {
				t.Fatalf("group %s/%s holds one domain in %d B", k.City, k.ISP, b)
			}
			n++
		}
	}
	if n != groups {
		t.Fatalf("%d groups, want %d", n, groups)
	}
}

// fillers are the strings fillInterner numbers; no record names one.
var fillers = sync.OnceValue(func() []string {
	s := make([]string, dataset.MaxInternedStrings)
	for i := range s {
		s[i] = fmt.Sprintf("fill-%06d", i)
	}
	return s
})

// fillInterner numbers fillers in the fresh table in until it has room
// for only room more strings.
func fillInterner(in *dataset.Interner, room int) {
	for _, s := range fillers() {
		if _, id := in.Intern(s); int(id) >= dataset.MaxInternedStrings-room-1 {
			return
		}
	}
}

// FuzzDomainSet drives one group pair's domain sets from a script of fuzz
// bytes and holds them to the string reference at every restore point and
// at the end. The first byte leaves that many ids free in the intern table,
// so the script's domains mix numbered and refused ones; after a restart
// the table is filled again behind what the restore numbered. Then each
// byte is one step, its top two bits the kind and the low six an argument:
// 0 and 1 add a record to group 0 or 1 of the pending frame, naming domain
// arg (0 is the empty domain); 2 offers the pending frame, parsed by the
// aggregator's pool, by ParseBatchView or by another pool as arg chooses;
// 3 checkpoints, restarts from a crash copy of the log, restarts cleanly, or
// only checks.
func FuzzDomainSet(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 0x40, 0x41, 0x45, 0x80, 0xc0, 5, 6, 7, 8, 0x46, 0x81, 0xc1, 1, 2, 9, 0x82, 0xc2, 10, 0x47})
	f.Add([]byte{0, 1, 1, 0, 0x50, 0x81, 0xc1, 1, 0x50, 0x82, 0xc3})
	f.Add([]byte{70, 0, 63, 62, 0x7f, 0x80, 0xc1, 63, 0x81, 0xc2, 61, 0x82})
	f.Add([]byte{2, 10, 11, 12, 13, 14, 0xc0, 15, 16, 0x80, 0xc1, 10, 17, 0x81, 0xc0, 0xc2, 18, 12, 0x82})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 || len(script) > 512 {
			return
		}
		room := int(script[0]) % 80
		script = script[1:]
		base := time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)
		groups := [2][2]string{{"Lagos", "starlink"}, {"Perth", "terrestrial"}}
		var other dataset.ViewPool
		other.Interner().Intern("shifts other's ids")

		dir := t.TempDir()
		open := func(dir string) *Aggregator {
			a, err := OpenAggregator(Config{Shards: 2, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: dir}})
			if err != nil {
				t.Fatal(err)
			}
			fillInterner(a.views.Interner(), room)
			return a
		}
		a := open(dir)
		defer func() { a.Close() }()
		ref := domainRef{}
		var pending []extension.Record
		restarts := 0
		check := func(label string) {
			ref.check(t, label, exportState(t, a))
		}
		offer := func(how byte) {
			if len(pending) == 0 {
				return
			}
			frame := dataset.MarshalBatch(pending)
			var v *dataset.BatchView
			var err error
			switch how % 3 {
			case 0:
				v, err = a.views.Parse(frame)
			case 1:
				v, err = dataset.ParseBatchView(frame)
			default:
				v, err = other.Parse(frame)
			}
			if err != nil {
				t.Fatal(err)
			}
			if acc, _ := a.OfferBatchView(v, trace.SpanContext{}); acc != len(pending) {
				t.Fatalf("accepted %d of %d", acc, len(pending))
			}
			ref.add(pending...)
			pending = pending[:0]
		}
		for _, b := range script {
			arg := b & 0x3f
			switch b >> 6 {
			case 0, 1:
				g := groups[b>>6]
				d := ""
				if arg > 0 {
					d = fmt.Sprintf("v%02d.example", arg)
				}
				pending = append(pending, extension.Record{
					UserID: "u", City: g[0], Country: "XX", ISP: g[1], ASN: 1,
					At: base, Domain: d, PTTMs: float64(arg), PLTMs: 1,
				})
			case 2:
				offer(arg)
			case 3:
				switch arg % 4 {
				case 0:
					if err := a.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				case 1, 2:
					if restarts == 3 {
						break
					}
					restarts++
					if err := a.SyncWAL(); err != nil {
						t.Fatal(err)
					}
					next := dir
					if arg%4 == 1 {
						next = copyWALDir(t, dir)
					}
					if err := a.Close(); err != nil {
						t.Fatal(err)
					}
					dir = next
					a = open(dir)
				}
				check(fmt.Sprintf("step %#x", b))
			}
		}
		offer(0)
		check("end")
	})
}
