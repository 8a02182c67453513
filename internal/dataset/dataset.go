// Package dataset serialises the study's two datasets — the anonymised
// browser-extension records and the volunteer-node measurement samples — to
// CSV and JSON, and loads them back. The paper's stated contribution beyond
// its findings is exactly these datasets ("provides two datasets that can be
// utilized to equip LEO simulations with real-world data"); this package is
// the release tooling for the reproduction's synthetic equivalents.
//
// Schemas follow the study's ethics constraints: records carry the random
// user identifier, city, ISP class, ASN, timestamp and timings — never an
// IP, user agent, or any offline identifier.
package dataset

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"starlinkview/internal/extension"
	"starlinkview/internal/rpinode"
	"starlinkview/internal/weather"
)

// extensionHeader is the CSV schema of the browsing dataset.
var extensionHeader = []string{
	"user_id", "city", "country", "isp", "asn", "timestamp",
	"domain", "rank", "popular", "ptt_ms", "plt_ms",
	"weather", "has_weather", "benchmark", "google",
}

// ExtensionHeader returns a copy of the browsing dataset's CSV schema. Row
// readers (kind-1 WAL replay in internal/collector) use it to size and
// validate rows.
func ExtensionHeader() []string {
	return append([]string(nil), extensionHeader...)
}

// MarshalExtensionRow renders one record as a CSV row. The same encoding is
// both the release-dataset format (under the ExtensionHeader row) and the
// payload of the kind-1 records older collectors logged (headerless, one row
// per record).
func MarshalExtensionRow(r extension.Record) []string {
	return []string{
		r.UserID, r.City, r.Country, r.ISP,
		strconv.Itoa(r.ASN),
		r.At.UTC().Format(time.RFC3339),
		r.Domain,
		strconv.Itoa(r.Rank),
		strconv.FormatBool(r.Popular),
		strconv.FormatFloat(r.PTTMs, 'f', 3, 64),
		strconv.FormatFloat(r.PLTMs, 'f', 3, 64),
		r.Condition.String(),
		strconv.FormatBool(r.HasWx),
		strconv.FormatBool(r.Benchmark),
		strconv.FormatBool(r.Google),
	}
}

// UnmarshalExtensionRow parses a row written by MarshalExtensionRow.
func UnmarshalExtensionRow(row []string) (extension.Record, error) {
	return parseExtensionRow(row)
}

// WriteExtensionCSV writes the browsing dataset.
func WriteExtensionCSV(w io.Writer, records []extension.Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(extensionHeader); err != nil {
		return fmt.Errorf("dataset: header: %w", err)
	}
	for _, r := range records {
		if err := cw.Write(MarshalExtensionRow(r)); err != nil {
			return fmt.Errorf("dataset: row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadExtensionCSV loads a browsing dataset written by WriteExtensionCSV.
func ReadExtensionCSV(r io.Reader) ([]extension.Record, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: read: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: empty file")
	}
	if len(rows[0]) != len(extensionHeader) || rows[0][0] != extensionHeader[0] {
		return nil, fmt.Errorf("dataset: unexpected header %v", rows[0])
	}
	out := make([]extension.Record, 0, len(rows)-1)
	for i, row := range rows[1:] {
		rec, err := parseExtensionRow(row)
		if err != nil {
			return nil, fmt.Errorf("dataset: row %d: %w", i+2, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

func parseExtensionRow(row []string) (extension.Record, error) {
	var rec extension.Record
	if len(row) != len(extensionHeader) {
		return rec, fmt.Errorf("want %d fields, got %d", len(extensionHeader), len(row))
	}
	rec.UserID, rec.City, rec.Country, rec.ISP = row[0], row[1], row[2], row[3]
	asn, err := strconv.Atoi(row[4])
	if err != nil {
		return rec, fmt.Errorf("asn: %w", err)
	}
	rec.ASN = asn
	at, err := time.Parse(time.RFC3339, row[5])
	if err != nil {
		return rec, fmt.Errorf("timestamp: %w", err)
	}
	rec.At = at
	rec.Domain = row[6]
	if rec.Rank, err = strconv.Atoi(row[7]); err != nil {
		return rec, fmt.Errorf("rank: %w", err)
	}
	if rec.Popular, err = strconv.ParseBool(row[8]); err != nil {
		return rec, fmt.Errorf("popular: %w", err)
	}
	if rec.PTTMs, err = strconv.ParseFloat(row[9], 64); err != nil {
		return rec, fmt.Errorf("ptt: %w", err)
	}
	if rec.PLTMs, err = strconv.ParseFloat(row[10], 64); err != nil {
		return rec, fmt.Errorf("plt: %w", err)
	}
	if rec.Condition, err = conditionByName(row[11]); err != nil {
		return rec, err
	}
	if rec.HasWx, err = strconv.ParseBool(row[12]); err != nil {
		return rec, fmt.Errorf("has_weather: %w", err)
	}
	if rec.Benchmark, err = strconv.ParseBool(row[13]); err != nil {
		return rec, fmt.Errorf("benchmark: %w", err)
	}
	if rec.Google, err = strconv.ParseBool(row[14]); err != nil {
		return rec, fmt.Errorf("google: %w", err)
	}
	return rec, nil
}

// conditionsByName is precomputed: record decoding is on the collector's
// ingest hot path, where a per-record scan over Conditions() would show up.
var conditionsByName = func() map[string]weather.Condition {
	m := make(map[string]weather.Condition, len(weather.Conditions()))
	for _, cand := range weather.Conditions() {
		m[cand.String()] = cand
	}
	return m
}()

func conditionByName(name string) (weather.Condition, error) {
	cand, ok := conditionsByName[name]
	if !ok {
		return 0, fmt.Errorf("unknown weather condition %q", name)
	}
	return cand, nil
}

// NodeSample is one volunteer-node measurement in the node dataset,
// flattening the iperf/UDP/speedtest sample kinds into one schema.
type NodeSample struct {
	Node     string    `json:"node"`
	Kind     string    `json:"kind"` // "iperf", "udp" or "speedtest"
	At       time.Time `json:"at"`
	DownMbps float64   `json:"down_mbps,omitempty"`
	UpMbps   float64   `json:"up_mbps,omitempty"`
	LossPct  float64   `json:"loss_pct,omitempty"`
	PingMs   float64   `json:"ping_ms,omitempty"`
}

// CollectNodeSamples flattens a node's recorded measurements.
func CollectNodeSamples(name string, n *rpinode.Node) []NodeSample {
	var out []NodeSample
	for _, s := range n.IperfSamples() {
		out = append(out, NodeSample{
			Node: name, Kind: "iperf", At: s.Wall,
			DownMbps: s.DownBps / 1e6, UpMbps: s.UpBps / 1e6, LossPct: s.DownLoss,
		})
	}
	for _, s := range n.UDPSamples() {
		out = append(out, NodeSample{
			Node: name, Kind: "udp", At: s.Wall, LossPct: s.LossPct,
		})
	}
	for _, s := range n.SpeedSamples() {
		out = append(out, NodeSample{
			Node: name, Kind: "speedtest", At: s.Wall,
			DownMbps: s.Res.DownMbps, UpMbps: s.Res.UpMbps, PingMs: s.Res.PingMs,
		})
	}
	return out
}

// WriteNodeJSON writes the node dataset as JSON lines.
func WriteNodeJSON(w io.Writer, samples []NodeSample) error {
	enc := json.NewEncoder(w)
	for _, s := range samples {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("dataset: encode: %w", err)
		}
	}
	return nil
}

// ReadNodeJSON loads a node dataset written by WriteNodeJSON.
func ReadNodeJSON(r io.Reader) ([]NodeSample, error) {
	dec := json.NewDecoder(r)
	var out []NodeSample
	for {
		var s NodeSample
		if err := dec.Decode(&s); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("dataset: decode: %w", err)
		}
		out = append(out, s)
	}
	return out, nil
}
