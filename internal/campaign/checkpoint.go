package campaign

import (
	"encoding/json"
	"fmt"
	"io"

	"optassign/internal/evt"
	"optassign/internal/wal"
)

// The journal is a campaign's only record: Run resumes by replaying it,
// and neither reads nor writes an estimator sidecar. The two functions
// below are kept only because the benchmark module still saves one per
// refit; they go with the benchmark revision.

// EstimatorCheckpointPath is the sidecar path for a journal: the journal
// path with ".estimator" appended. Kept for the benchmark module only.
func EstimatorCheckpointPath(journalPath string) string {
	return journalPath + ".estimator"
}

// SaveEstimatorCheckpoint atomically replaces the file at path with st
// (wal.WriteFileAtomic: temp file, fsync, rename, directory fsync), so a
// crash at any instant leaves either the previous or the new state fully
// intact. Kept for the benchmark module only: nothing in this module
// reads the file back.
func SaveEstimatorCheckpoint(path string, st evt.StreamState) error {
	err := wal.WriteFileAtomic(path, 0o600, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(st)
	})
	if err != nil {
		return fmt.Errorf("campaign: estimator checkpoint: %w", err)
	}
	return nil
}
