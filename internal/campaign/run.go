package campaign

import (
	"context"
	"errors"
	"fmt"

	"optassign/internal/core"
	"optassign/internal/evt"
)

// RunConfig says how Run executes and persists a campaign.
type RunConfig struct {
	// Journal write-ahead logs every committed draw and anchors the
	// estimator checkpoint (EstimatorCheckpointPath of its path). nil
	// runs the campaign unjournaled and uncheckpointed.
	Journal *Journal
	// State is what ResumeJournal recovered from Journal. With recorded
	// draws the campaign continues where the interrupted one stopped,
	// restoring the estimator checkpoint if one exists; nil (or a state
	// without draws) starts fresh.
	State *JournalState
	// Workers is how many measurements run concurrently on a
	// core.ReplicatedPool over the runner; values below 1 mean one, a
	// serial campaign. The runner must be safe for concurrent use when
	// Workers > 1.
	Workers int
	// Batch, with Size > 0, hands each worker chunks of Size draws,
	// which a batch-capable source (directly or behind a
	// core.CachedRunner) resolves in cache-deduped, core-sharded
	// batches.
	Batch core.BatchOptions
	// PoolMetrics instruments the worker pool; nil disables.
	PoolMetrics *core.PoolMetrics
	// Commit, if set, observes every committed draw in draw order, right
	// after the journal has persisted it.
	Commit core.CommitFunc
}

// Run executes one campaign — the §5.3 loop of cfg over runner — on one
// pool of max(1, rc.Workers) workers, committing in draw order through
// one chain: the journal, then rc.Commit. Journal bytes and the result
// are identical for every worker count and batch size, and across a
// kill and resume. Run owns cfg's ResumeLog, StreamCheckpoint and
// OnRefit whenever rc carries a journal or a recovered state.
//
// When ctx is done and the campaign ends in any error but
// core.ErrBudgetExhausted, the error wraps context.Canceled: a remote
// measurement stream collapsing under the cancellation surfaces as a
// transport error, but the campaign was interrupted, not broken — the
// journal holds every committed draw and a resume continues it.
func Run(ctx context.Context, runner core.ContextRunner, cfg core.IterConfig, rc RunConfig) (core.IterResult, error) {
	res, err := run(ctx, runner, cfg, rc)
	if err != nil && ctx.Err() != nil && !errors.Is(err, core.ErrBudgetExhausted) && !errors.Is(err, context.Canceled) {
		err = fmt.Errorf("%w (teardown: %v)", context.Canceled, err)
	}
	return res, err
}

func run(ctx context.Context, runner core.ContextRunner, cfg core.IterConfig, rc RunConfig) (core.IterResult, error) {
	resumed := rc.State != nil && rc.State.Draws > 0
	if resumed {
		cfg.ResumeLog = rc.State.Log
	}
	commit := rc.Commit
	if j := rc.Journal; j != nil {
		commit = core.ChainCommits(j.Commit, rc.Commit)
		ckptPath := EstimatorCheckpointPath(j.path)
		if resumed {
			// The checkpoint's hash is verified against the replayed
			// sample before it is trusted. Absent (killed before the first
			// refit) the state is rebuilt from the replay.
			ckpt, err := LoadEstimatorCheckpoint(ckptPath)
			if err != nil {
				return core.IterResult{}, err
			}
			cfg.StreamCheckpoint = ckpt
		}
		cfg.OnRefit = func(st evt.StreamState) error {
			// The journal reaches stable storage before a checkpoint that
			// covers it: after a power loss the checkpoint must never hold
			// more observations than the surviving journal replays. The
			// hook runs beside the next round's commits: the sync covers
			// every line appended before the refit, and the next round's
			// appends go on while it runs.
			if err := j.Sync(); err != nil {
				return fmt.Errorf("campaign: syncing journal: %w", err)
			}
			return SaveEstimatorCheckpoint(ckptPath, st)
		}
	}

	pool, err := core.NewReplicatedPool(runner, max(1, rc.Workers))
	if err != nil {
		return core.IterResult{}, err
	}
	pool.Instrument(rc.PoolMetrics)
	return core.IteratePool(ctx, cfg, pool, rc.Batch, commit)
}
