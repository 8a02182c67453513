package collector

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/obs"
	"starlinkview/internal/trace"
	"starlinkview/internal/wal"
)

// goldenForwardDigest was computed before the splitter was pooled across
// requests. It covers every forward POST body, its record count and every
// frame this instance logged over a seeded request sequence, so it must not
// move.
const goldenForwardDigest = "6246c7a0278eb2d83427cbc4e2b2ce030ed0fe1f92c1d36db2a45a9066ba5ff0"

// epochRing is a forwarder whose ring the test redraws between requests:
// names lists the owners a (city, ISP) key hashes over ("" is this
// instance) and salt shifts the hash, so consecutive requests see different
// peer sets and different splits. It keeps each POST body of the current
// request by peer. Requests must be serial.
type epochRing struct {
	names []string
	salt  uint32
	posts map[string]forwardPost
	order []string // peers in POST order
}

type forwardPost struct {
	body    []byte
	records int
}

func (f *epochRing) OwnerExtension(city, isp string) string {
	return f.names[(shardHash(isp, city)+f.salt)%uint32(len(f.names))]
}

func (f *epochRing) ForwardFrame(peer string, frames []byte, records int, _ trace.SpanContext) (int, error) {
	if _, dup := f.posts[peer]; dup {
		panic("two POSTs to " + peer + " in one request")
	}
	f.posts[peer] = forwardPost{append([]byte(nil), frames...), records}
	f.order = append(f.order, peer)
	return records, nil
}

// TestForwardSplitGoldenDigest runs a seeded sequence of batch requests of
// one to four frames through one server whose ring changes between
// requests, and hashes each request's reply counts, every forward POST body
// with its record count (peers in name order), and then every frame the
// instance logged. A splitter that carries rows or bytes from one request
// into the next changes the digest.
func TestForwardSplitGoldenDigest(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	dir := t.TempDir()
	srv, err := OpenServer(Config{Shards: 4, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	fwd := &epochRing{}
	srv.SetForwarder(fwd)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(contextWithTimeout(t))

	pool := []string{"peer-a", "peer-b", "peer-c", "peer-d"}
	h := sha256.New()
	for req := 0; req < 60; req++ {
		names := []string{""}
		for _, i := range r.Perm(len(pool))[:1+r.Intn(3)] {
			names = append(names, pool[i])
		}
		if r.Intn(6) == 0 {
			names = names[1:] // nothing stays here
		}
		fwd.names, fwd.salt = names, uint32(r.Intn(1000))
		fwd.posts = make(map[string]forwardPost)
		var body []byte
		for f := 1 + r.Intn(4); f > 0; f-- {
			body = append(body, dataset.MarshalBatch(goldenRecords(r, 1+r.Intn(300)))...)
		}
		reply := postFrames(t, srv, body)
		fmt.Fprintf(h, "request %d: accepted %d dropped %d forwarded %d\n",
			req, reply.Accepted, reply.Dropped, reply.Forwarded)
		peers := make([]string, 0, len(fwd.posts))
		for peer := range fwd.posts {
			peers = append(peers, peer)
		}
		slices.Sort(peers)
		for _, peer := range peers {
			p := fwd.posts[peer]
			if p.records == 0 || len(p.body) == 0 {
				t.Fatalf("request %d: empty POST to %s", req, peer)
			}
			fmt.Fprintf(h, "%s %d %d\n", peer, p.records, len(p.body))
			h.Write(p.body)
		}
	}
	frames := 0
	err = wal.ReplayDir(nil, copyWALDir(t, dir), 0, func(rec wal.Rec) error {
		frames++
		fmt.Fprintf(h, "logged kind %d, %d bytes\n", rec.Kind, len(rec.Payload))
		h.Write(rec.Payload)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if frames == 0 {
		t.Fatal("the sequence logged no local frame")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenForwardDigest {
		t.Errorf("forward digest %s, want %s", got, goldenForwardDigest)
	}
}

// TestForwardOrderFirstSeen checks that a request's POSTs go out in the
// order its rows first name their peers, across frames, so the reply after a
// partial failure and the order of forward spans do not depend on map
// iteration. The splitter is pooled, so peers of earlier requests are still
// known to it and must neither be posted to nor reorder the next request.
func TestForwardOrderFirstSeen(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	srv, err := OpenServer(Config{Shards: 2, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	fwd := &epochRing{}
	srv.SetForwarder(fwd)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(contextWithTimeout(t))
	pool := []string{"peer-a", "peer-b", "peer-c", "peer-d", "peer-e"}
	for req := 0; req < 30; req++ {
		fwd.names = append([]string{""}, pool[:1+r.Intn(len(pool))]...)
		r.Shuffle(len(fwd.names), func(i, j int) { fwd.names[i], fwd.names[j] = fwd.names[j], fwd.names[i] })
		fwd.salt = uint32(r.Intn(1000))
		fwd.posts, fwd.order = make(map[string]forwardPost), nil
		var body []byte
		var want []string
		for f := 1 + r.Intn(3); f > 0; f-- {
			recs := goldenRecords(r, 1+r.Intn(40))
			for _, rec := range recs {
				if o := fwd.OwnerExtension(rec.City, rec.ISP); o != "" && !slices.Contains(want, o) {
					want = append(want, o)
				}
			}
			body = append(body, dataset.MarshalBatch(recs)...)
		}
		postFrames(t, srv, body)
		if !slices.Equal(fwd.order, want) {
			t.Fatalf("request %d posted to %v, want first-seen order %v", req, fwd.order, want)
		}
	}
}

// lateReader is a forwarder for concurrent requests. It owns a third of the
// keyspace like ringThirds and checks every body it is handed against the
// rows the test expects of that request and peer. It fails about a quarter
// of the POSTs after reading half the body, and reads the other half later
// from another goroutine, as net/http may after Do returns. A splitter that
// is reused while such a read is pending races with it, and changes the
// bytes the late read checksums.
type lateReader struct {
	want func(req int, peer string) []extension.Record

	late    sync.WaitGroup
	torn    atomic.Int32 // late reads that found the body changed
	mu      sync.Mutex
	bad     []string
	records int // accepted by successful POSTs
}

func (f *lateReader) OwnerExtension(city, isp string) string {
	return [...]string{"", "peer-a", "peer-b"}[shardHash(isp, city)%3]
}

func (f *lateReader) fail(format string, args ...any) {
	f.mu.Lock()
	f.bad = append(f.bad, fmt.Sprintf(format, args...))
	f.mu.Unlock()
}

func (f *lateReader) ForwardFrame(peer string, frames []byte, records int, _ trace.SpanContext) (int, error) {
	sum := crc32.ChecksumIEEE(frames)
	if sum%4 == 0 {
		half := len(frames) / 2
		_ = crc32.ChecksumIEEE(frames[:half])
		f.late.Add(1)
		go func() {
			defer f.late.Done()
			time.Sleep(2 * time.Millisecond)
			if crc32.ChecksumIEEE(frames) != sum {
				f.torn.Add(1)
			}
		}()
		return 0, fmt.Errorf("connection reset after %d bytes", half)
	}
	var got []extension.Record
	for rd := bytes.NewReader(frames); ; {
		recs, err := dataset.ReadBatch(rd)
		if err == io.EOF {
			break
		}
		if err != nil {
			f.fail("%s: body: %v", peer, err)
			return 0, err
		}
		got = append(got, recs...)
	}
	req := -1
	if len(got) > 0 {
		fmt.Sscanf(got[0].UserID, "q%d", &req)
	}
	if want := f.want(req, peer); len(got) != records || !sameRecords(got, want) {
		f.fail("%s: request %d: body of %d rows (records %d) is not its %d rows", peer, req, len(got), records, len(want))
		return 0, fmt.Errorf("wrong body")
	}
	f.mu.Lock()
	f.records += records
	f.mu.Unlock()
	return records, nil
}

// TestForwardSplitPoolRaces sends concurrent split requests through the
// splitter pool against a forwarder that fails some POSTs while a late read
// of their body is still pending. Every POST body must hold exactly its
// request's rows for that peer, no body may change under a late read (the
// race detector watches the same reads), each reply must count its own
// request, and the instance must end up holding exactly the local rows of
// every request.
func TestForwardSplitPoolRaces(t *testing.T) {
	const clients, perClient = 4, 30
	r := rand.New(rand.NewSource(29))
	type request struct {
		body   []byte
		byPeer map[string][]extension.Record
	}
	reqs := make([]request, clients*perClient)
	fwd := &lateReader{}
	for id := range reqs {
		rq := request{byPeer: make(map[string][]extension.Record)}
		for f := 1 + r.Intn(4); f > 0; f-- {
			recs := goldenRecords(r, 1+r.Intn(200))
			for i := range recs {
				recs[i].UserID = fmt.Sprintf("q%d", id)
			}
			frame := dataset.MarshalBatch(recs)
			rq.body = append(rq.body, frame...)
			decoded, err := dataset.UnmarshalBatch(frame)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range decoded {
				owner := fwd.OwnerExtension(rec.City, rec.ISP)
				rq.byPeer[owner] = append(rq.byPeer[owner], rec)
			}
		}
		reqs[id] = rq
	}
	fwd.want = func(req int, peer string) []extension.Record {
		if req < 0 || req >= len(reqs) {
			return nil
		}
		return reqs[req].byPeer[peer]
	}

	srv, err := OpenServer(Config{Shards: 4, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetForwarder(fwd)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(contextWithTimeout(t))

	var wg sync.WaitGroup
	var failed atomic.Int32
	errs := make(chan error, len(reqs))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for id := c; id < len(reqs); id += clients {
				rq := reqs[id]
				resp, err := http.Post(srv.URL()+PathIngestBatch, BatchContentType, bytes.NewReader(rq.body))
				if err != nil {
					errs <- err
					return
				}
				var reply IngestReply
				err = json.NewDecoder(resp.Body).Decode(&reply)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				local := len(rq.byPeer[""])
				foreign := len(rq.byPeer["peer-a"]) + len(rq.byPeer["peer-b"])
				switch {
				case reply.Accepted != local || reply.Dropped != 0:
					errs <- fmt.Errorf("request %d: reply %+v, want %d accepted", id, reply, local)
				case resp.StatusCode == http.StatusOK && reply.Forwarded != foreign:
					errs <- fmt.Errorf("request %d: 200 with %d forwarded, want %d", id, reply.Forwarded, foreign)
				case resp.StatusCode == http.StatusBadGateway:
					failed.Add(1)
				case resp.StatusCode != http.StatusOK:
					errs <- fmt.Errorf("request %d: status %d", id, resp.StatusCode)
				}
			}
		}(c)
	}
	wg.Wait()
	fwd.late.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, msg := range fwd.bad {
		t.Error(msg)
	}
	if n := fwd.torn.Load(); n != 0 {
		t.Errorf("%d bodies changed while a failed POST could still read them", n)
	}
	if failed.Load() == 0 || int(failed.Load()) == len(reqs) {
		t.Fatalf("%d of %d requests failed a forward; the test needs some of each", failed.Load(), len(reqs))
	}

	var local []extension.Record
	for _, rq := range reqs {
		local = append(local, rq.byPeer[""]...)
	}
	want := foldSnapshot(local)
	got := srv.Aggregator().Snapshot()
	if got.Accepted != want.Accepted || len(got.Groups) != len(want.Groups) {
		t.Fatalf("instance holds %d records in %d groups, want %d in %d",
			got.Accepted, len(got.Groups), want.Accepted, len(want.Groups))
	}
	for i, g := range got.Groups {
		w := want.Groups[i]
		if g.City != w.City || g.ISP != w.ISP || g.Count != w.Count || g.Domains != w.Domains ||
			g.P50PTTMs != w.P50PTTMs || g.P95PTTMs != w.P95PTTMs {
			t.Errorf("group %d: got %+v, want %+v", i, g, w)
		}
	}
}

// TestSplitterPoolDropsOversized checks the pool's size cap. A splitter
// within it comes back from the pool; one that split a single all-local frame
// whose row scratch alone passes maxPooledSplitter is dropped at the ack, so
// the pool never hands it out again. (An all-local frame grows only the
// per-row pair numbering, so size must count it.) So is one that split a frame of few rows
// but a dictionary larger than the cap: re-encoding by dictionary index grows
// the encoder's remap to the view's dictionary, not to the rows.
func TestSplitterPoolDropsOversized(t *testing.T) {
	srv, err := OpenServer(Config{Shards: 1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	fwd := &epochRing{names: []string{""}, posts: make(map[string]forwardPost)}
	srv.SetForwarder(fwd)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(contextWithTimeout(t))
	if !raceEnabled { // the race detector makes sync.Pool drop items at random
		kept := false
		for i := 0; i < 10 && !kept; i++ {
			sp := srv.splitter(fwd)
			srv.releaseSplitter(sp)
			kept = srv.splitter(fwd) == sp
		}
		if !kept {
			t.Fatal("a released splitter never came back from the pool")
		}
	}

	var views dataset.ViewPool
	small, err := views.Parse(dataset.MarshalBatch(goldenRecords(rand.New(rand.NewSource(32)), 64)))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int32, maxPooledSplitter/4+1024)
	for i := range rows {
		rows[i] = int32(i % small.Len())
	}
	var enc dataset.BatchEncoder
	reply := postFrames(t, srv, enc.EncodeRows(small, rows))
	if reply.Accepted != len(rows) || reply.Forwarded != 0 {
		t.Fatalf("reply %+v, want all %d rows accepted here", reply, len(rows))
	}
	for i := 0; i < 10; i++ {
		if sp := srv.splitter(fwd); cap(sp.local) >= len(rows) || cap(sp.pairs.of) >= len(rows) {
			t.Fatalf("the pool handed back the splitter of the %d-row frame", len(rows))
		}
	}

	// Only this request has a peer, so only its splitter knows one.
	fwd.names, fwd.posts = []string{"", "peer-a"}, make(map[string]forwardPost)
	huge := withUnusedUserIDs(t, small.Frame(), maxPooledSplitter/4+1024)
	reply = postFrames(t, srv, huge)
	if reply.Accepted == 0 || reply.Forwarded == 0 || reply.Accepted+reply.Forwarded != small.Len() {
		t.Fatalf("reply %+v, want the %d rows split between here and peer-a", reply, small.Len())
	}
	for i := 0; i < 10; i++ {
		if sp := srv.splitter(fwd); len(sp.known) != 0 {
			t.Fatalf("the pool handed back the splitter of the frame with a %d-entry dictionary", maxPooledSplitter/4+1024)
		}
	}
}

// rewriteColumns returns frame with each column's encoding and payload
// replaced by what edit returns for them, under a fresh CRC: the frames of
// this package's encoders, rewritten as a foreign encoder might write them.
func rewriteColumns(frame []byte, edit func(id, enc byte, payload []byte) (byte, []byte)) []byte {
	body := frame[8 : len(frame)-4]
	_, k := binary.Uvarint(body[1:])
	off := 1 + k + 1 // version, record count, column count
	nb := append([]byte(nil), body[:off]...)
	for off < len(body) {
		id, enc := body[off], body[off+1]
		plen, k := binary.Uvarint(body[off+2:])
		payload := body[off+2+k : off+2+k+int(plen)]
		off += 2 + k + int(plen)
		enc, payload = edit(id, enc, payload)
		nb = append(nb, id, enc)
		nb = binary.AppendUvarint(nb, uint64(len(payload)))
		nb = append(nb, payload...)
	}
	out := binary.LittleEndian.AppendUint32([]byte(dataset.BatchMagic), uint32(len(nb)))
	out = append(out, nb...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(nb, crc32.MakeTable(crc32.Castagnoli)))
}

// dictEntriesEnd is the offset in a dictionary column's payload where its
// entries end and the rows' index stream begins, after the entry count at
// [0, first).
func dictEntriesEnd(payload []byte) (nEntries uint64, first, end int) {
	nEntries, first = binary.Uvarint(payload)
	end = first
	for i := uint64(0); i < nEntries; i++ {
		l, k := binary.Uvarint(payload[end:])
		end += k + int(l)
	}
	return nEntries, first, end
}

// withUnusedUserIDs returns frame with extra empty entries, which no row
// names, appended to its user-ID dictionary.
func withUnusedUserIDs(t *testing.T, frame []byte, extra int) []byte {
	t.Helper()
	return rewriteColumns(frame, func(id, enc byte, payload []byte) (byte, []byte) {
		if id != 0 {
			return enc, payload
		}
		nEntries, first, end := dictEntriesEnd(payload)
		p := binary.AppendUvarint(nil, nEntries+uint64(extra))
		p = append(p, payload[first:end]...)
		p = append(p, make([]byte, extra)...) // each a zero length
		return enc, append(p, payload[end:]...)
	})
}

// withRawPTT rewrites frame's PTT column as raw float bits of ptts, the
// encoding a foreign encoder may use for values that are not on the milli
// grid; this package's encoders only ever write raw bits of quantised
// values.
func withRawPTT(t *testing.T, frame []byte, ptts []float64) []byte {
	t.Helper()
	const colPTT, encF64Raw = 9, 5
	return rewriteColumns(frame, func(id, enc byte, payload []byte) (byte, []byte) {
		if id != colPTT {
			return enc, payload
		}
		payload = nil
		for _, v := range ptts {
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(v))
		}
		return encF64Raw, payload
	})
}

// peerServer is a two-instance ring: keys hash over this instance and one
// peer server, which gets its rows as a forwarded /ingest/batch request.
type peerServer struct{ peer *Server }

func (f *peerServer) OwnerExtension(city, isp string) string {
	if shardHash(city, isp)%2 == 0 {
		return ""
	}
	return "peer"
}

func (f *peerServer) ForwardFrame(_ string, frames []byte, records int, _ trace.SpanContext) (int, error) {
	req, err := http.NewRequest(http.MethodPost, f.peer.URL()+PathIngestBatch, bytes.NewReader(frames))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", BatchContentType)
	req.Header.Set(HeaderForwarded, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("peer answered %s", resp.Status)
	}
	return records, nil
}

// TestRawFloatFrameAppliesAlikeWholeOrSplit ingests one frame whose PTT
// column holds raw, unquantised floats whole on one instance and split
// across two. The split re-encodes the rows it forwards and keeps, which
// quantises them; the parse quantises raw floats too, so every group's
// count and mean PTT must come out the same either way.
func TestRawFloatFrameAppliesAlikeWholeOrSplit(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	recs := batchTestRecords(36, 600)
	ptts := make([]float64, len(recs))
	for i := range ptts {
		ptts[i] = 20 + 500*r.Float64() // far off the milli grid
	}
	frame := withRawPTT(t, dataset.MarshalBatch(recs), ptts)
	start := func() *Server {
		srv := NewServer(Config{Shards: 2, Registry: obs.NewRegistry()})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		return srv
	}
	whole, local, peer := start(), start(), start()
	local.SetForwarder(&peerServer{peer: peer})
	if reply := postFrames(t, whole, frame); reply.Accepted != len(recs) {
		t.Fatalf("whole: reply %+v", reply)
	}
	if reply := postFrames(t, local, frame); reply.Accepted == 0 || reply.Forwarded == 0 || reply.Accepted+reply.Forwarded != len(recs) {
		t.Fatalf("split: reply %+v, want rows both kept and forwarded", reply)
	}
	var states []MergeState
	for _, srv := range []*Server{whole, local, peer} {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		st, err := srv.Aggregator().Snapshot().ExportState()
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, st)
	}
	want, err := MergeStates(states[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := MergeStates(states[1:]...)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("split: %d groups, whole: %d", len(got.Groups), len(want.Groups))
	}
	for i, g := range got.Groups {
		w := want.Groups[i]
		if g.City != w.City || g.ISP != w.ISP || g.Count != w.Count || g.MeanPTTMs != w.MeanPTTMs {
			t.Fatalf("group %s/%s: split count %d mean %v, whole %s/%s count %d mean %v",
				g.City, g.ISP, g.Count, g.MeanPTTMs, w.City, w.ISP, w.Count, w.MeanPTTMs)
		}
	}
}
