package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
)

// packetExhibitsDigest pins every exhibit the packet simulator (netsim, cc,
// measure) produces on the shared quick study. It was computed before the
// event engine was rebuilt, so any change in event order, random draw order
// or transport behaviour shows up here as a different hash.
const packetExhibitsDigest = "0eca7a7e6b1ec8e2b50bae3117e81086eafc747e810338f574fd81d6287884cd"

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
	h := sha256.New()
	h.Write(buf.Bytes())
	// fmt prints maps in key order, so the raw dump is deterministic.
	fmt.Fprintf(h, "%v\n%v\n%v\n%v\n%v\n%v\n%v\n%v\n%v\n",
		table2, table3, fig5, fig6a, fig6b, fig6c, fig7, fig8, ablation)
	if got := hex.EncodeToString(h.Sum(nil)); got != packetExhibitsDigest {
		t.Errorf("packet exhibits digest = %s, want %s\n%s", got, packetExhibitsDigest, buf.String())
	}
}
