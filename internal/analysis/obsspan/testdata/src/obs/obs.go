// Package obs is the fixture's stand-in for spanjoin/internal/obs: the
// Stage type, a subset of the stage constants (values match the real
// taxonomy — the analyzer's known set comes from the real package), and
// a StageRecorder with the recording surface.
package obs

import (
	"context"
	"time"
)

// Stage names one pipeline phase.
type Stage string

const (
	StageCache     Stage = "cache"
	StagePlan      Stage = "plan_build"
	StagePrefilter Stage = "prefilter"
	StageEnumerate Stage = "enumerate"
	StageWALAppend Stage = "wal_append"
	StageWALSync   Stage = "wal_fsync"
)

// StageRecorder records stages into the histograms and the trace.
type StageRecorder struct{}

// Observe records d against the stage.
func (r *StageRecorder) Observe(ctx context.Context, s Stage, d time.Duration) { _, _, _ = ctx, s, d }

// ObserveItems records d and n work units against the stage.
func (r *StageRecorder) ObserveItems(ctx context.Context, s Stage, d time.Duration, n int64) {
	_, _, _, _ = ctx, s, d, n
}
