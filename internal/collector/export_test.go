package collector

import (
	"testing"

	"starlinkview/internal/extension"
)

// The tests of package collector_test compact logs through package cluster,
// which imports this one; these names give them this package's test logs
// and its PTT rule.

// WriteMixedLog writes writeMixedLog's log for seed and returns its
// directory, the rows recovery should apply from it in log order, and the
// corrupt payloads and node samples it should skip.
func WriteMixedLog(t *testing.T, seed int64) (dir string, rows []extension.Record, corrupt, nodes uint64) {
	lg := writeMixedLog(t, seed)
	return lg.dir, lg.rows, lg.corrupt, lg.nodes
}

var (
	ValidPTT         = validPTT
	BatchTestRecords = batchTestRecords
)
