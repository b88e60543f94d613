package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spanjoin"
	"spanjoin/client"
	"spanjoin/server"
)

// newTestServer starts a spand server on a real TCP socket and returns
// it with a client pointed at it.
func newTestServer(t *testing.T, docs []string, cfg server.Config, copts ...spanjoin.CorpusOption) (*spanjoin.Corpus, *client.Client, string) {
	t.Helper()
	c := spanjoin.NewCorpus(copts...)
	c.AddAll(docs...)
	ts := httptest.NewServer(server.New(c, cfg).Handler())
	t.Cleanup(ts.Close)
	cl, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c, cl, ts.URL
}

func testDocs() []string {
	docs := []string{
		"alice sent mail",
		"no matches here",
		"aa mail mail aa",
		"",
		"mail",
		"bb aa mail",
	}
	for i := 0; i < 20; i++ {
		docs = append(docs, fmt.Sprintf("filler %d mail tail", i))
	}
	return docs
}

const testPattern = `.*x{mail}.*`

// TestEvalRoundTripByteIdentical is the acceptance e2e: pagination over
// the socket, resumed through cursor tokens, must be byte-identical to
// driving Corpus.EvalSpannerPage directly — same rows, same order, same
// wire encoding.
func TestEvalRoundTripByteIdentical(t *testing.T) {
	corpus, cl, _ := newTestServer(t, testDocs(), server.Config{}, spanjoin.WithShards(3))
	sp, err := spanjoin.Compile(testPattern)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const limit = 4

	// Reference: the library's own pages, rendered through the same wire
	// conversion the server uses.
	var want []string
	for off := uint64(0); ; off += limit {
		page, err := corpus.EvalSpannerPage(ctx, sp, off, limit)
		if err != nil {
			t.Fatal(err)
		}
		for _, cm := range page.Matches {
			b, _ := json.Marshal(server.RowOf(cm))
			want = append(want, string(b))
		}
		if len(page.Matches) < limit {
			break
		}
	}
	if len(want) == 0 {
		t.Fatal("reference produced no rows")
	}

	// Over the wire, resuming each page from the previous page's token.
	var got []string
	req := client.EvalRequest{Pattern: testPattern, Limit: limit}
	pages := 0
	for {
		page, err := cl.Eval(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range page.Matches {
			b, _ := json.Marshal(m)
			got = append(got, string(b))
		}
		if tu := page.Total.Uint64(); tu != uint64(len(want)) {
			t.Fatalf("page %d: total %v, want %d", pages, page.Total, len(want))
		}
		// The first page sweeps every document; the cursor pages that
		// follow take all of them from the pattern's count memo.
		st, n := page.Stats, uint64(corpus.Len())
		if wantReused := n * uint64(min(pages, 1)); st.Reused != wantReused || st.Scanned+st.Skipped+st.Reused != n {
			t.Fatalf("page %d: stats %+v, want %d of %d documents reused", pages, st, wantReused, n)
		}
		pages++
		if page.Next == "" {
			break
		}
		req = client.EvalRequest{Cursor: page.Next, Limit: limit}
	}
	if pages < 2 {
		t.Fatalf("only %d pages — the test corpus should paginate", pages)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d rows over the wire, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs:\n  wire: %s\n  lib:  %s", i, got[i], want[i])
		}
	}
}

func TestEvalOffsetBoundaryOverWire(t *testing.T) {
	_, cl, _ := newTestServer(t, testDocs(), server.Config{})
	for _, off := range []uint64{math.MaxUint64 - 1, math.MaxUint64} {
		page, err := cl.Eval(context.Background(), client.EvalRequest{Pattern: testPattern, Offset: off, Limit: 100})
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if len(page.Matches) != 0 || page.Next != "" {
			t.Fatalf("offset %d: %d rows, next %q; want an exhausted page", off, len(page.Matches), page.Next)
		}
	}
}

func TestErrorStatuses(t *testing.T) {
	_, _, base := newTestServer(t, testDocs(), server.Config{})
	hc := &http.Client{}
	for _, tc := range []struct {
		name, path string
		status     int
	}{
		{"bad pattern", "/eval?q=" + `x%7Ba`, http.StatusBadRequest},
		{"missing q", "/eval", http.StatusBadRequest},
		{"bad mode", "/eval?q=x%7Ba%7D&mode=bogus", http.StatusBadRequest},
		{"bad limit", "/eval?q=x%7Ba%7D&limit=-2", http.StatusBadRequest},
		{"bad timeout", "/eval?q=x%7Ba%7D&timeout=banana", http.StatusBadRequest},
		{"cursor plus q", "/eval?q=x%7Ba%7D&cursor=sj1.x", http.StatusBadRequest},
		{"tampered cursor", "/eval?cursor=sj1.dGFtcGVyZWQ", http.StatusBadRequest},
		{"bad seed", "/sample?q=x%7Ba%7D&seed=-4", http.StatusBadRequest},
		{"bad n", "/sample?q=x%7Ba%7D&n=0", http.StatusBadRequest},
		{"count missing q", "/count", http.StatusBadRequest},
	} {
		resp, err := hc.Get(base + tc.path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var body server.ErrorBody
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%+v)", tc.name, resp.StatusCode, tc.status, body)
		}
		if body.Error == "" {
			t.Errorf("%s: empty error body", tc.name)
		}
	}
}

func TestDeadlineMapsTo504(t *testing.T) {
	// Many sizable documents + a 1ns cap: the evaluation cannot finish.
	docs := make([]string, 64)
	for i := range docs {
		docs[i] = strings.Repeat("a", 2000)
	}
	_, cl, _ := newTestServer(t, docs, server.Config{})
	_, err := cl.Eval(context.Background(), client.EvalRequest{Pattern: `a*x{a+}a*`, Timeout: time.Nanosecond})
	var re *client.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *client.RemoteError", err)
	}
	if re.Status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%v)", re.Status, re)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("remote deadline does not unwrap to context.DeadlineExceeded: %v", err)
	}
}

func TestBudgetMapsTo413WithPartialRows(t *testing.T) {
	docs := make([]string, 32)
	for i := range docs {
		docs[i] = "aaaa"
	}
	_, cl, _ := newTestServer(t, docs, server.Config{})
	// A tiny budget: some rows may arrive before it runs dry, and the
	// typed error must surface alongside them.
	page, err := cl.Eval(context.Background(), client.EvalRequest{Pattern: `a*x{a+}a*`, Budget: 30, Limit: 1000})
	if !errors.Is(err, spanjoin.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var re *client.RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("err = %v, want status 413", err)
	}
	if page == nil {
		t.Fatal("413 must still deliver the partial page")
	}
	t.Logf("budget page delivered %d partial rows", len(page.Matches))
}

func TestOverloadShedsWith429(t *testing.T) {
	docs := make([]string, 128)
	for i := range docs {
		docs[i] = strings.Repeat("ab", 3000)
	}
	_, _, base := newTestServer(t, docs, server.Config{},
		spanjoin.WithMaxConcurrent(1), spanjoin.WithWorkers(1))
	// Saturate: many concurrent slow queries against a gate of 1 with no
	// queue. Retries are disabled so sheds surface instead of being
	// absorbed.
	clNoRetry, err := client.New(base, client.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var (
		wg           sync.WaitGroup
		mu           sync.Mutex
		shed, served int
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := clNoRetry.Eval(context.Background(),
				client.EvalRequest{Pattern: `.*x{ab}.*`, Limit: 5})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				served++
			case errors.Is(err, spanjoin.ErrOverloaded):
				shed++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if served == 0 {
		t.Error("no request was served")
	}
	if shed == 0 {
		t.Error("16x saturation against capacity 1 shed nothing")
	}
	t.Logf("served %d, shed %d", served, shed)
}

func TestCountAndSampleOverWire(t *testing.T) {
	corpus, cl, _ := newTestServer(t, testDocs(), server.Config{})
	ctx := context.Background()
	want, err := corpus.Count(ctx, testPattern)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Count(ctx, testPattern, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("remote count %v, local %v", got, want)
	}
	s1, err := cl.Sample(ctx, testPattern, "", 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := cl.Sample(ctx, testPattern, "", 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != 8 || len(s2) != 8 {
		t.Fatalf("draw sizes %d, %d; want 8", len(s1), len(s2))
	}
	for i := range s1 {
		a, _ := json.Marshal(s1[i])
		b, _ := json.Marshal(s2[i])
		if string(a) != string(b) {
			t.Fatalf("draw %d differs under the same seed", i)
		}
		if s1[i].Spans["x"].Text != "mail" {
			t.Fatalf("draw %d bound x=%q, want \"mail\"", i, s1[i].Spans["x"].Text)
		}
	}
}

func TestStatsOverWire(t *testing.T) {
	_, cl, _ := newTestServer(t, testDocs(), server.Config{}, spanjoin.WithShards(3))
	ctx := context.Background()
	if _, err := cl.Count(ctx, testPattern, "", 0); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Docs != len(testDocs()) || st.Shards != 3 {
		t.Fatalf("stats %+v: want %d docs, 3 shards", st, len(testDocs()))
	}
	if st.Server.Served == 0 {
		t.Error("served counter did not move")
	}
	if st.Cache.Misses == 0 {
		t.Error("cache miss counter did not move")
	}
}

func TestSearchModeOverWire(t *testing.T) {
	corpus, cl, _ := newTestServer(t, testDocs(), server.Config{})
	ctx := context.Background()
	want, err := corpus.CountSearch(ctx, `x{mail}`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Count(ctx, `x{mail}`, "search", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("remote search count %v, local %v", got, want)
	}
	// Search-mode pagination resumes through its cursor too.
	p1, err := cl.Eval(ctx, client.EvalRequest{Pattern: `x{mail}`, Mode: "search", Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Next == "" {
		t.Fatal("expected a continuation")
	}
	p2, err := cl.Eval(ctx, client.EvalRequest{Cursor: p1.Next, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Matches) == 0 {
		t.Fatal("resumed search page is empty")
	}
}
