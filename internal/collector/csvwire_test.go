package collector

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"testing"

	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/obs"
	"starlinkview/internal/trace"
	"starlinkview/internal/wal"
)

// goldenCSVDigest was computed while the CSV wire still queued, logged and
// forwarded one record at a time. It covers every reply, every record handed
// to a peer, and the snapshot live and after a crash, so it must not move.
const goldenCSVDigest = "0b4247ccc57493bf74b985c8464cadcd34e9fb28c8a1688c88c9ba310796ccbb"

// csvPeers is a forwarder for the CSV wire tests: it owns a third of the
// (city, ISP) keyspace like ringThirds, and keeps the records each peer is
// handed in the current request, decoded.
type csvPeers struct {
	got map[string][]extension.Record
}

func (f *csvPeers) OwnerExtension(city, isp string) string {
	return [...]string{"", "peer-a", "peer-b"}[shardHash(isp, city)%3]
}

func (f *csvPeers) ForwardFrame(peer string, frames []byte, records int, _ trace.SpanContext) (int, error) {
	var got []extension.Record
	for rd := bytes.NewReader(frames); ; {
		recs, err := dataset.ReadBatch(rd)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		got = append(got, recs...)
	}
	if len(got) != records {
		return 0, fmt.Errorf("body holds %d records, POST says %d", len(got), records)
	}
	f.got[peer] = append(f.got[peer], got...)
	return records, nil
}

// postCSV POSTs a CSV body, optionally marked as a peer's forward, and
// returns the status and the decoded reply.
func postCSV(t *testing.T, srv *Server, body []byte, forwarded bool) (int, IngestReply) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, srv.URL()+PathIngestExtension, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ExtensionContentType)
	if forwarded {
		req.Header.Set(HeaderForwarded, "peer-z")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply IngestReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, reply
}

// TestCSVIngestGoldenDigest runs a seeded sequence of CSV requests through
// one durable server, some behind a forwarder that owns a third of the
// keyspace, some marked as a peer's forward, one with a malformed row
// mid-body and one with a PTT over an hour. It hashes each reply's status
// and counts, the records each peer was handed (by peer name, in the order
// received), the live snapshot, and the snapshot a crash copy of the log
// recovers.
func TestCSVIngestGoldenDigest(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	dir := t.TempDir()
	srv, err := OpenServer(Config{Shards: 4, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(contextWithTimeout(t))
	fwd := &csvPeers{}

	const malformed, tooLong = 17, 31
	h := sha256.New()
	var accepted uint64
	for req := 0; req < 48; req++ {
		recs := goldenRecords(r, 1+r.Intn(2500))
		routed := r.Intn(3) != 0
		forwarded := r.Intn(8) == 0
		var body []byte
		switch req {
		case malformed:
			routed, forwarded = true, false
			recs = goldenRecords(r, 3000)
			body = append(mustCSV(recs[:2100]), "not,a,record\n"...)
			body = append(body, mustCSV(recs[2100:])...)
		case tooLong:
			routed, forwarded = false, false
			recs = goldenRecords(r, 2600)
			recs[1500].PTTMs = 2 * maxPTTMs
			body = mustCSV(recs)
		default:
			body = mustCSV(recs)
		}
		if routed {
			srv.SetForwarder(fwd)
		} else {
			srv.SetForwarder(nil)
		}
		fwd.got = make(map[string][]extension.Record)
		status, reply := postCSV(t, srv, body, forwarded)
		if (status == http.StatusBadRequest) != (req == malformed || req == tooLong) {
			t.Fatalf("request %d: status %d", req, status)
		}
		accepted += uint64(reply.Accepted)
		fmt.Fprintf(h, "request %d: status %d accepted %d dropped %d forwarded %d\n",
			req, status, reply.Accepted, reply.Dropped, reply.Forwarded)
		peers := make([]string, 0, len(fwd.got))
		for peer := range fwd.got {
			peers = append(peers, peer)
		}
		slices.Sort(peers)
		for _, peer := range peers {
			fmt.Fprintf(h, "%s %d\n", peer, len(fwd.got[peer]))
			h.Write(mustCSV(fwd.got[peer]))
		}
	}
	a := srv.Aggregator()
	fmt.Fprintf(h, "live %s\n", snapshotDigest(t, a))

	crashed, err := OpenAggregator(Config{Shards: 4, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: copyWALDir(t, dir)}})
	if err != nil {
		t.Fatal(err)
	}
	if rec := crashed.WALRecovery(); rec.ReplayedRecords != accepted || rec.SkippedCorrupt != 0 {
		t.Fatalf("crash copy replayed %+v, want the %d accepted records", rec, accepted)
	}
	fmt.Fprintf(h, "crash %s\n", snapshotDigest(t, crashed))
	if err := crashed.Close(); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenCSVDigest {
		t.Errorf("CSV ingest digest %s, want %s", got, goldenCSVDigest)
	}
}

// legacyCSVPayload is a kind-1 WAL payload as the collector wrote them when
// the CSV wire logged one record at a time: the record's dataset CSV row.
func legacyCSVPayload(t *testing.T, rec extension.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.Write(dataset.MarshalExtensionRow(rec)); err != nil {
		t.Fatal(err)
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplayLegacyCSVRows replays a log of kind-1 rows interleaved with
// batch frames and node samples, as a collector that logged its CSV wire a
// record at a time left them. Recovery must rebuild what the same records,
// offered in the same order as frames, build live, count each row whose PTT
// ingest refuses as corrupt, and count each node sample as skipped.
func TestReplayLegacyCSVRows(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	recs := goldenRecords(r, 3000)
	samples := goldenNodeSamples(r, 60)
	dir := t.TempDir()
	w, err := wal.Open(wal.Config{Dir: dir, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ref := NewAggregator(Config{Shards: 4, Registry: obs.NewRegistry()})
	var bad, offered, nodes uint64
	for len(recs) > 0 {
		n := min(len(recs), 1+r.Intn(200))
		if r.Intn(2) == 0 {
			frame := dataset.MarshalBatch(recs[:n])
			if _, err := w.Append(WALKindExtensionBatch, frame); err != nil {
				t.Fatal(err)
			}
			if acc, _ := ref.OfferExtensionFrame(frame, nil, trace.SpanContext{}); acc != n {
				t.Fatalf("reference accepted %d of %d", acc, n)
			}
			offered += uint64(n)
		} else {
			for _, rec := range recs[:n] {
				if r.Intn(40) == 0 {
					rec.PTTMs = []float64{-1, 2 * maxPTTMs}[r.Intn(2)]
					bad++
				} else {
					if acc, _ := ref.OfferExtensionFrame(nil, []extension.Record{rec}, trace.SpanContext{}); acc != 1 {
						t.Fatal("reference rejected a record")
					}
					offered++
				}
				if _, err := w.Append(WALKindExtension, legacyCSVPayload(t, rec)); err != nil {
					t.Fatal(err)
				}
			}
		}
		recs = recs[n:]
		for _, s := range samples[:min(len(samples), r.Intn(3))] {
			payload, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Append(walKindNode, append(payload, '\n')); err != nil {
				t.Fatal(err)
			}
			nodes++
			samples = samples[1:]
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if bad == 0 || nodes == 0 {
		t.Fatalf("the log holds %d out-of-range rows and %d node samples; want both", bad, nodes)
	}

	replayed, err := OpenAggregator(Config{Shards: 4, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	if rec := replayed.WALRecovery(); rec.ReplayedRecords != offered || rec.SkippedCorrupt != bad || rec.SkippedNodeRecords != nodes {
		t.Fatalf("recovery %+v, want %d replayed, %d skipped and %d node samples skipped", rec, offered, bad, nodes)
	}
	if got, want := snapshotDigest(t, replayed), snapshotDigest(t, ref); got != want {
		t.Fatalf("replayed snapshot %s differs from the frame-fed reference %s", got, want)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCSVFramesBoundedByBytes sends fewer than csvFrameRows rows whose CSV
// runs past csvFrameBytes: the handler must cut a frame at the byte bound,
// so the log holds two frames that together hold every row, in order.
func TestCSVFramesBoundedByBytes(t *testing.T) {
	recs := goldenRecords(rand.New(rand.NewSource(36)), 600)
	pad := strings.Repeat("x", 8<<10)
	for i := range recs {
		recs[i].Domain = fmt.Sprintf("%s-%03d.example", pad, i)
	}
	body := mustCSV(recs)
	if len(recs) >= csvFrameRows || len(body) <= csvFrameBytes || len(body) > 2*csvFrameBytes {
		t.Fatalf("%d rows in %d bytes; want under csvFrameRows rows in one to two csvFrameBytes", len(recs), len(body))
	}
	dir := t.TempDir()
	srv, err := OpenServer(Config{Shards: 2, Registry: obs.NewRegistry(), WAL: WALConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(contextWithTimeout(t))
	if status, reply := postCSV(t, srv, body, false); status != http.StatusOK || reply.Accepted != len(recs) {
		t.Fatalf("status %d, reply %+v; want all %d rows accepted", status, reply, len(recs))
	}
	frames, _ := crashReplaySnapshot(t, dir)
	var logged []extension.Record
	for _, f := range frames {
		logged = append(logged, f...)
	}
	if len(frames) != 2 || !sameRecords(logged, recs) {
		t.Fatalf("log holds %d frames of %d rows; want 2 holding the %d rows in order", len(frames), len(logged), len(recs))
	}
}
