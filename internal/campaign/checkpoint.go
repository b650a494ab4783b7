package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"optassign/internal/cas"
	"optassign/internal/evt"
)

// Estimator checkpoints are the streaming counterpart of the write-ahead
// journal: the journal persists every measurement, the checkpoint
// persists the tail estimator's state at each scheduled refit, so a
// resumed campaign restores its POT state (order statistics, threshold,
// interval, refit schedule) and feeds only the post-checkpoint journal
// delta instead of rebuilding from the whole sample. The checkpoint is a
// sidecar next to the journal — one JSON document, rewritten atomically
// at each refit — because unlike the journal it is a snapshot, not a
// log: only the latest state matters, and a half-written snapshot must
// never be loadable.
//
// Crash ordering is safe in one direction only: measurements hit the
// journal before the refit that includes them, and Run syncs the journal
// before each checkpoint it saves, so at any crash — power loss included
// — the journal is at or ahead of the checkpoint. The save runs beside
// the next round (core.IterConfig.OnRefit), whose draws the journal keeps
// committing meanwhile: that only moves the journal further ahead. A
// save that fails leaves the previous checkpoint in place and stops the
// campaign one round later, at most Ndelta draws past it. Resume verifies
// the rest — the checkpoint's commit-order hash must match the journal's
// replayed prefix (see core.IterConfig.StreamCheckpoint).

// EstimatorCheckpointPath is the sidecar path for a journal: the journal
// path with ".estimator" appended.
func EstimatorCheckpointPath(journalPath string) string {
	return journalPath + ".estimator"
}

// SaveEstimatorCheckpoint atomically replaces the checkpoint at path
// with st (cas.WriteFileAtomic: temp file, fsync, rename, directory
// fsync), so a crash at any instant leaves either the previous or the
// new checkpoint fully intact.
func SaveEstimatorCheckpoint(path string, st evt.StreamState) error {
	err := cas.WriteFileAtomic(path, 0o600, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(st)
	})
	if err != nil {
		return fmt.Errorf("campaign: estimator checkpoint: %w", err)
	}
	return nil
}

// LoadEstimatorCheckpoint reads the checkpoint at path. A missing file
// is not an error — it returns (nil, nil): a campaign journaled before
// its first refit, or by a build without streaming checkpoints, simply
// resumes by re-feeding the replayed sample.
func LoadEstimatorCheckpoint(path string) (*evt.StreamState, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: estimator checkpoint: %w", err)
	}
	var st evt.StreamState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("campaign: decoding estimator checkpoint %s: %w", path, err)
	}
	return &st, nil
}
