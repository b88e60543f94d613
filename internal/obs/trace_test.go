package obs

import (
	"context"
	"encoding/json"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsNoop(t *testing.T) {
	var tr *Trace
	tr.observe(StageEnumerate, time.Second, 0)
	tr.observe(StageCache, time.Second, 1)
	if tr.Spans() != nil {
		t.Fatal("nil trace returned spans")
	}
	if tr.Total() != 0 {
		t.Fatal("nil trace returned nonzero total")
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("untraced context returned a trace")
	}
	ctx, tr := WithTrace(context.Background())
	if got := FromContext(ctx); got != tr {
		t.Fatal("FromContext did not return the attached trace")
	}
}

func TestTraceMergesRepeatedStages(t *testing.T) {
	tr := NewTrace()
	tr.observe(StageEnumerate, 10*time.Millisecond, 5)
	tr.observe(StageEnumerate, 15*time.Millisecond, 7)
	tr.observe(StagePrefilter, time.Millisecond, 0)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2 (repeats merge)", len(spans))
	}
	var enum StageSpan
	for _, s := range spans {
		if s.Stage == StageEnumerate {
			enum = s
		}
	}
	if enum.Dur != 25*time.Millisecond || enum.Items != 12 || enum.Calls != 2 {
		t.Fatalf("merged span = %+v", enum)
	}
}

func TestTraceConcurrentObserve(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	stages := []Stage{StageEnumerate, StagePrefilter, StageAdmission, StageCache}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.observe(stages[g%len(stages)], time.Microsecond, 1)
			}
		}(g)
	}
	wg.Wait()
	var items int64
	for _, s := range tr.Spans() {
		items += s.Items
	}
	if items != 8*500 {
		t.Fatalf("items = %d, want %d", items, 8*500)
	}
}

func TestStageSpanJSONShape(t *testing.T) {
	b, err := json.Marshal(StageSpan{Stage: StageEnumerate, Start: 5, Dur: 10, Items: 2, Calls: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"stage":"enumerate","start_ns":5,"dur_ns":10,"items":2,"calls":1}`
	if string(b) != want {
		t.Fatalf("json = %s, want %s", b, want)
	}
}

func TestStageRecorderFeedsHistogramAndTrace(t *testing.T) {
	r := NewRegistry()
	rec := r.Stages()
	if r.Stages() != rec {
		t.Fatal("Stages returned a second recorder")
	}
	ctx, tr := WithTrace(context.Background())
	rec.ObserveItems(ctx, StageCount, 3*time.Millisecond, 7)
	rec.Observe(ctx, StageCount, 2*time.Millisecond)
	// Untraced: the histogram only.
	rec.Observe(context.Background(), StageWALSync, time.Millisecond)
	// Outside the taxonomy, and on the nil recorder: nowhere.
	rec.Observe(ctx, "warp_drive", time.Second)
	(*StageRecorder)(nil).Observe(ctx, StageCount, time.Second)

	count := rec.hist[slices.Index(AllStages, StageCount)]
	if count.Count() != 2 || count.Sum() != 5*time.Millisecond {
		t.Fatalf("count series: %d observations, %v; want 2, 5ms", count.Count(), count.Sum())
	}
	if h := rec.hist[slices.Index(AllStages, StageWALSync)]; h.Count() != 1 {
		t.Fatalf("untraced observation: wal_fsync series has %d, want 1", h.Count())
	}
	spans := tr.Spans()
	want := StageSpan{Stage: StageCount, Dur: 5 * time.Millisecond, Items: 7, Calls: 2}
	if len(spans) != 1 || spans[0].Stage != want.Stage || spans[0].Dur != want.Dur ||
		spans[0].Items != want.Items || spans[0].Calls != want.Calls {
		t.Fatalf("trace = %+v, want one span like %+v", spans, want)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, s := range AllStages {
		if series := `spanjoin_stage_seconds_count{stage="` + string(s) + `"}`; !strings.Contains(sb.String(), series) {
			t.Errorf("exposition lacks %s", series)
		}
	}
}
