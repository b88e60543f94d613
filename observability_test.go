package spanjoin_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"spanjoin"
	"spanjoin/internal/obs"
)

// stageSeries reads the spanjoin_stage_seconds series of c's registry,
// keyed by stage.
func stageSeries(c *spanjoin.Corpus) map[obs.Stage]spanjoin.MetricPoint {
	out := make(map[obs.Stage]spanjoin.MetricPoint)
	for _, p := range c.Metrics().Snapshot() {
		if p.Name == "spanjoin_stage_seconds" {
			out[obs.Stage(p.Labels["stage"])] = p
		}
	}
	return out
}

// TestStageHistogramsMatchTrace: one call records each stage into both
// the query's trace and the stage's spanjoin_stage_seconds series. On a
// durable, gated, indexed corpus that runs nothing but one traced probe
// — four writes, an open stream, a count the gate sheds beside it, then
// a count, a page and a sample — every series' count and sum equal the
// trace's Calls and Dur for its stage exactly, including the stages the
// trace never saw. A traced snapshot then adds its cycle to both; the
// rotation's fsync inside it has no query context and reaches the
// histogram only.
func TestStageHistogramsMatchTrace(t *testing.T) {
	c := openDurable(t, t.TempDir(), spanjoin.WithMaxConcurrent(1), spanjoin.WithIndex(),
		spanjoin.WithResultBuffer(1), spanjoin.WithWorkers(1))
	ctx, tr := spanjoin.WithTrace(context.Background())
	for _, doc := range []string{"mail to bob@host", "alice@example.org says hi", "no address", "carol@x.io and dan@y.io"} {
		if _, err := c.AddErrCtx(ctx, doc); err != nil {
			t.Fatal(err)
		}
	}
	target := spanjoin.Search(`x{[a-z]+}@y{[a-z]+}`)
	holder, err := c.Eval(ctx, target)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if _, ok := holder.Next(); !ok {
		t.Fatal("holder query produced nothing")
	}
	if _, err := c.Count(ctx, target); !errors.Is(err, spanjoin.ErrOverloaded) {
		t.Fatalf("count beside the holder: err = %v, want ErrOverloaded", err)
	}
	for {
		if _, ok := holder.Next(); !ok {
			break
		}
	}
	if err := holder.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Count(ctx, target); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Page(ctx, target, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sample(ctx, target, rand.New(rand.NewSource(1)), 3); err != nil {
		t.Fatal(err)
	}

	traced := make(map[obs.Stage]spanjoin.StageSpan)
	for _, s := range tr.Spans() {
		traced[s.Stage] = s
	}
	calls := map[obs.Stage]int64{
		spanjoin.StageWALAppend: 4, spanjoin.StageWALSync: 4,
		spanjoin.StageCache: 5, spanjoin.StagePlanBuild: 1, spanjoin.StageAdmission: 5,
		spanjoin.StagePrefilter: 4, spanjoin.StageEnumerate: 1, spanjoin.StageCount: 3,
	}
	series := stageSeries(c)
	if len(series) != 9 {
		t.Fatalf("%d spanjoin_stage_seconds series, want 9", len(series))
	}
	for stage, p := range series {
		s := traced[stage]
		if s.Calls != calls[stage] {
			t.Errorf("%s: traced %d times, want %d", stage, s.Calls, calls[stage])
		}
		if p.Count != uint64(s.Calls) || p.SumSec != s.Dur.Seconds() {
			t.Errorf("%s: histogram %d observations, %vs; trace %d calls, %vs",
				stage, p.Count, p.SumSec, s.Calls, s.Dur.Seconds())
		}
		// The probe runs each stage's calls one after another.
		if total := tr.Total(); s.Dur > total {
			t.Errorf("%s: traced %v, longer than the whole trace's %v", stage, s.Dur, total)
		}
	}

	snapCtx, snapTr := spanjoin.WithTrace(context.Background())
	if err := c.Snapshot(snapCtx); err != nil {
		t.Fatal(err)
	}
	spans := snapTr.Spans()
	if len(spans) != 1 || spans[0].Stage != spanjoin.StageSnapshot {
		t.Fatalf("snapshot trace = %+v, want the snapshot stage alone", spans)
	}
	if p := stageSeries(c)[spanjoin.StageSnapshot]; p.Count != 1 || p.SumSec != spans[0].Dur.Seconds() {
		t.Fatalf("snapshot: histogram %d observations, %vs; trace %+v", p.Count, p.SumSec, spans[0])
	}
}
