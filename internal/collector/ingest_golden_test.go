package collector

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"testing"

	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/obs"
	"starlinkview/internal/trace"
)

// goldenBatchIngestDigest was computed while the collector still took CSV
// rows on a second ingest route. It covers every reply, every record handed
// to a peer, and the snapshot live and after a crash, so it must not move.
const goldenBatchIngestDigest = "68729be1ab39a518d786ad8bcdc303f18a60a4ba25f7332d36d116547b355062"

// goldenFrameRows is how many records the golden requests put in one frame.
const goldenFrameRows = 1024

// recordingPeers is a forwarder that owns a third of the (city, ISP)
// keyspace like ringThirds, and keeps the records each peer is handed in
// the current request, decoded.
type recordingPeers struct {
	got map[string][]extension.Record
}

func (f *recordingPeers) OwnerExtension(city, isp string) string {
	return [...]string{"", "peer-a", "peer-b"}[shardHash(isp, city)%3]
}

func (f *recordingPeers) ForwardFrame(peer string, frames []byte, records int, _ trace.SpanContext) (int, error) {
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

// goldenFrames cuts recs into frames of at most goldenFrameRows records.
func goldenFrames(recs []extension.Record) [][]byte {
	var frames [][]byte
	for len(recs) > 0 {
		n := min(len(recs), goldenFrameRows)
		frames = append(frames, dataset.MarshalBatch(recs[:n]))
		recs = recs[n:]
	}
	return frames
}

// postGoldenFrames POSTs frames as one /ingest/batch body, optionally marked
// as a peer's forward, and returns the status and the decoded reply.
func postGoldenFrames(t *testing.T, hc *http.Client, srv *Server, frames [][]byte, forwarded bool) (int, IngestReply) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, srv.URL()+PathIngestBatch, bytes.NewReader(bytes.Join(frames, nil)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", BatchContentType)
	if forwarded {
		req.Header.Set(HeaderForwarded, "peer-z")
	}
	resp, err := hc.Do(req)
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

// TestBatchIngestGoldenDigest runs a seeded sequence of batch requests
// through one durable server, some behind a forwarder that owns a third of
// the keyspace, some marked as a peer's forward, one whose third frame fails
// its CRC and one with a PTT over an hour. It hashes each reply's status and
// counts, the records each peer was handed (by peer name, in the order
// received), the live snapshot, and the snapshot a crash copy of the log
// recovers.
func TestBatchIngestGoldenDigest(t *testing.T) {
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
	tr := NewFrameTransport()
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	fwd := &recordingPeers{}

	const badCRC, tooLong = 17, 31
	h := sha256.New()
	var accepted uint64
	for req := 0; req < 48; req++ {
		recs := goldenRecords(r, 1+r.Intn(2500))
		routed := r.Intn(3) != 0
		forwarded := r.Intn(8) == 0
		switch req {
		case badCRC:
			routed, forwarded = true, false
			recs = goldenRecords(r, 3000)
		case tooLong:
			routed, forwarded = false, false
			recs = goldenRecords(r, 2600)
			recs[1500].PTTMs = 2 * maxPTTMs
		}
		frames := goldenFrames(recs)
		if req == badCRC {
			frames[2][len(frames[2])-1] ^= 0xff
		}
		if routed {
			srv.SetForwarder(fwd)
		} else {
			srv.SetForwarder(nil)
		}
		fwd.got = make(map[string][]extension.Record)
		status, reply := postGoldenFrames(t, hc, srv, frames, forwarded)
		if (status == http.StatusBadRequest) != (req == badCRC || req == tooLong) {
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
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenBatchIngestDigest {
		t.Errorf("batch ingest digest %s, want %s", got, goldenBatchIngestDigest)
	}
}
