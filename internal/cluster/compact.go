package cluster

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"starlinkview/internal/collector"
	"starlinkview/internal/dataset"
	"starlinkview/internal/extension"
	"starlinkview/internal/wal"
)

// CompactConfig parameterises one compaction pass over a collector WAL.
type CompactConfig struct {
	// WALDir is the WAL directory (segments + checkpoint).
	WALDir string
	// OutDir receives the release-format datasets; created if missing.
	OutDir string
	// FS overrides the filesystem (default the real one).
	FS wal.FS
}

// CompactResult summarises one pass.
type CompactResult struct {
	// ColdSegments were eligible this pass; Compacted of them were newly
	// rewritten (the rest already had outputs — the pass is idempotent).
	ColdSegments int `json:"cold_segments"`
	Compacted    int `json:"compacted"`
	// ExtensionRecords counts rows written this pass.
	ExtensionRecords int `json:"extension_records"`
	// Outputs are the dataset files written this pass.
	Outputs []string `json:"outputs,omitempty"`
}

// CompactColdSegments rewrites cold WAL segments as release-format
// datasets: extension records become a sorted dataset CSV (the schema the
// paper's released dataset uses). Node samples an earlier build logged are
// left out. A segment
// is cold once it is sealed — every segment but the highest-based one. The
// writer fsyncs a segment before sealing it and never appends to it again,
// so a sealed segment's contents are durable and immutable, and the rewrite
// is a pure function of the segment file: any two compactions of the same
// segment emit byte-identical datasets.
//
// The pass is idempotent and crash-safe: each segment's outputs are written
// to temp names and renamed into place, and segments whose outputs already
// exist are skipped. It never deletes or modifies WAL files — pruning stays
// the writer's job — so it is safe to run beside a live collectord. Note
// that checkpointing prunes covered segments; to compact everything, run a
// pass before shutting the collector down (the collectord -compact-interval
// loop) or keep checkpointing disabled and compact offline.
func CompactColdSegments(cfg CompactConfig) (CompactResult, error) {
	fsys := cfg.FS
	if fsys == nil {
		fsys = wal.OSFS{}
	}
	var res CompactResult
	segs, err := wal.ListSegments(fsys, cfg.WALDir)
	if err != nil {
		return res, fmt.Errorf("cluster: compact: %w", err)
	}
	if len(segs) <= 1 {
		return res, nil // only the active segment, never cold
	}
	if err := fsys.MkdirAll(cfg.OutDir); err != nil {
		return res, fmt.Errorf("cluster: compact: mkdir out: %w", err)
	}
	for _, seg := range segs[:len(segs)-1] { // last is active
		res.ColdSegments++
		if err := compactSegment(fsys, cfg, seg, &res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// outputStem maps wal-<base>.seg to the <stem> its dataset is named by:
// <stem>.csv.
func outputStem(seg wal.SegmentInfo) string {
	return strings.TrimSuffix(seg.Name, ".seg")
}

func compactSegment(fsys wal.FS, cfg CompactConfig, seg wal.SegmentInfo, res *CompactResult) error {
	stem := outputStem(seg)
	csvPath := filepath.Join(cfg.OutDir, stem+".csv")

	var recs []extension.Record
	f, err := fsys.Open(filepath.Join(cfg.WALDir, seg.Name))
	if err != nil {
		return fmt.Errorf("cluster: compact: open %s: %w", seg.Name, err)
	}
	_, readErr := wal.ReadSegment(f, func(r wal.Rec) error {
		switch r.Kind {
		case collector.WALKindExtension:
			rec, err := collector.DecodeWALExtension(r.Payload)
			if err != nil {
				return err
			}
			recs = append(recs, rec)
		case collector.WALKindExtensionBatch:
			batch, err := collector.DecodeWALExtensionBatch(r.Payload)
			if err != nil {
				return err
			}
			recs = append(recs, batch...)
		}
		return nil
	})
	f.Close()
	if readErr != nil {
		return fmt.Errorf("cluster: compact: read %s: %w", seg.Name, readErr)
	}

	// Release order: group key then time, so compaction output is sorted
	// the way the released dataset is and independent of ingest arrival
	// interleaving.
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.City != b.City {
			return a.City < b.City
		}
		if a.ISP != b.ISP {
			return a.ISP < b.ISP
		}
		if !a.At.Equal(b.At) {
			return a.At.Before(b.At)
		}
		return a.Domain < b.Domain
	})

	if len(recs) == 0 {
		return nil
	}
	wrote, err := writeAtomic(fsys, cfg.OutDir, csvPath, func(f wal.File) error {
		return dataset.WriteExtensionCSV(f, recs)
	})
	if err != nil {
		return fmt.Errorf("cluster: compact: %s: %w", csvPath, err)
	}
	if wrote {
		res.Compacted++
		res.ExtensionRecords += len(recs)
		res.Outputs = append(res.Outputs, csvPath)
	}
	return nil
}

// writeAtomic writes path via temp+rename, skipping (false, nil) when the
// output already exists — repeated passes rewrite nothing.
func writeAtomic(fsys wal.FS, dir, path string, fill func(wal.File) error) (bool, error) {
	if _, err := fsys.Size(path); err == nil {
		return false, nil
	}
	tmp := path + ".tmp"
	_ = fsys.Remove(tmp)
	f, err := fsys.Create(tmp)
	if err != nil {
		return false, err
	}
	if err := fill(f); err != nil {
		f.Close()
		return false, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return false, err
	}
	if err := f.Close(); err != nil {
		return false, err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return false, err
	}
	if err := fsys.SyncDir(dir); err != nil {
		return false, err
	}
	return true, nil
}
