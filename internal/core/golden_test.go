package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"starlinkview/internal/extension"
)

// packetExhibitsDigest pins every exhibit the packet simulator (netsim, cc,
// measure) produces on the shared quick study. It was computed before the
// event engine was rebuilt, so any change in event order, random draw order
// or transport behaviour shows up here as a different hash.
const packetExhibitsDigest = "0eca7a7e6b1ec8e2b50bae3117e81086eafc747e810338f574fd81d6287884cd"

// probeExhibitsDigest pins the two study results that drive measure's probe
// trains outside packetExhibitsDigest: the ISL extension's pings and the
// handover-policy ablation's UDP blasts. It was computed before those trains
// stopped scheduling one closure per probe.
const probeExhibitsDigest = "f8c985e2e06d78ce05e8e85052bfe3c57465e50dcf54e49689deb965a5db0167"

// browsingExhibitsDigest pins Table 1, Figure 3 and Figure 4 of the shared
// quick study: the exhibits built from the browsing campaign rather than the
// packet simulator. It was computed before the event queue re-keyed its root
// in place, though nothing on the browsing path runs netsim.
const browsingExhibitsDigest = "2b3037fb82b4b7843131a66a441b352de4f5728775d380ed33d62ff61fbdec41"

// exhibitDigest hashes a rendered report followed by the raw results it was
// rendered from, printed with %v at full float precision. fmt prints maps in
// key order, so the raw dump is deterministic.
func exhibitDigest(report []byte, raw ...any) string {
	h := sha256.New()
	h.Write(report)
	for _, r := range raw {
		fmt.Fprintf(h, "%v\n", r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPacketExhibitsGoldenDigest hashes the rendered network exhibits of the
// shared quick study, plus every result at full float precision, and
// compares the hash with the pinned value. Other architectures may fuse
// floating-point multiply-adds differently, so the pin is amd64's.
func TestPacketExhibitsGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest pinned on amd64")
	}
	var buf bytes.Buffer
	table2 := quickTable2(t)
	ReportTable2(&buf, table2)
	table3 := quickTable3(t)
	ReportTable3(&buf, table3)
	fig5 := quickFigure5(t)
	ReportFigure5(&buf, fig5)
	fig6a := quickFigure6a(t)
	ReportFigure6a(&buf, fig6a)
	fig6b := quickFigure6b(t)
	ReportFigure6b(&buf, fig6b)
	fig6c := quickFigure6c(t)
	ReportFigure6c(&buf, fig6c)
	fig7 := quickFigure7(t)
	ReportFigure7(&buf, fig7)
	fig8 := quickFigure8(t)
	ReportFigure8(&buf, fig8)
	ablation := quickAblation(t)
	for _, r := range ablation {
		fmt.Fprintf(&buf, "ablation %s bursty %.3f iid %.3f\n", r.Algorithm, r.Bursty, r.IID)
	}
	got := exhibitDigest(buf.Bytes(), table2, table3, fig5, fig6a, fig6b, fig6c, fig7, fig8, ablation)
	if got != packetExhibitsDigest {
		t.Errorf("packet exhibits digest = %s, want %s\n%s", got, packetExhibitsDigest, buf.String())
	}
}

// TestProbeExhibitsGoldenDigest is TestPacketExhibitsGoldenDigest for the
// ISL extension and the handover-policy ablation.
func TestProbeExhibitsGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest pinned on amd64")
	}
	var buf bytes.Buffer
	isl := quickISL(t)
	ReportExtensionISL(&buf, isl)
	handover := quickHandoverAblation(t)
	for _, r := range handover {
		fmt.Fprintf(&buf, "handover %s handovers=%d hard=%d loss %.3f%%\n",
			r.Policy, r.Handovers, r.HardHandovers, r.MeanLossPct)
	}
	if got := exhibitDigest(buf.Bytes(), isl, handover); got != probeExhibitsDigest {
		t.Errorf("probe exhibits digest = %s, want %s\n%s", got, probeExhibitsDigest, buf.String())
	}
}

// TestBrowsingExhibitsGoldenDigest is TestPacketExhibitsGoldenDigest for the
// browsing exhibits.
func TestBrowsingExhibitsGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest pinned on amd64")
	}
	s := quickStudy(t)
	var buf bytes.Buffer
	table1, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	ReportTable1(&buf, table1)
	fig3, err := s.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	ReportFigure3(&buf, fig3)
	fig4, err := s.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	ReportFigure4(&buf, fig4)
	if got := exhibitDigest(buf.Bytes(), table1, fig3, fig4); got != browsingExhibitsDigest {
		t.Errorf("browsing exhibits digest = %s, want %s\n%s", got, browsingExhibitsDigest, buf.String())
	}
}

// browsingRecordsDigest pins the browsing campaign's dataset record by
// record: every field of every Collector.Records() entry in slice order,
// and the order OnRecord streamed them in. It was computed while
// SimulateUsers still re-sorted the whole dataset after each user and
// tranco.List.Site still built a fresh random source per call, so a change
// in draw order, tie order or commit order shows up here.
const browsingRecordsDigest = "4420b64c967b372dd869aa8530cce6a01f91112e5f09cfea32dac08ea6c46f2b"

// recordsDigest hashes a dataset with %+v, one record a line.
func recordsDigest(records []extension.Record) string {
	h := sha256.New()
	for _, r := range records {
		fmt.Fprintf(h, "%+v\n", r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBrowsingRecordsGoldenDigest hashes the shared quick study's dataset,
// then runs a fresh seed-7 campaign at one and two workers, hashing each
// one's dataset and the stream OnRecord saw, and compares the combined hash
// with the pinned value.
func TestBrowsingRecordsGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest pinned on amd64")
	}
	var buf bytes.Buffer
	shared := quickStudy(t).Collector.Records()
	fmt.Fprintf(&buf, "shared %d %s\n", len(shared), recordsDigest(shared))
	for _, workers := range []int{1, 2} {
		cfg := QuickConfig()
		cfg.Seed = 7
		cfg.BrowsingDays = 10
		cfg.Workers = workers
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var stream []extension.Record
		s.Collector.OnRecord = func(r extension.Record) { stream = append(stream, r) }
		if err := s.RunBrowsing(); err != nil {
			t.Fatal(err)
		}
		records := s.Collector.Records()
		fmt.Fprintf(&buf, "seed7 workers=%d records %d %s stream %d %s\n", workers,
			len(records), recordsDigest(records), len(stream), recordsDigest(stream))
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != browsingRecordsDigest {
		t.Errorf("browsing records digest = %s, want %s\n%s", got, browsingRecordsDigest, buf.String())
	}
}
