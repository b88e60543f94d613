package spanjoin_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"spanjoin"
)

func matchStrings(ms []spanjoin.Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.String()
	}
	return out
}

// TestStreamMatchesEval: over a sequence of documents — the empty one
// and a repeat (whose second build reuses pooled graph arenas) included —
// the match stream Iterate opens and the batch EvalAll both return
// per-document Eval's matches in per-document order.
func TestStreamMatchesEval(t *testing.T) {
	sp := spanjoin.MustCompile(`.*x{[a-z]+}@y{[a-z]+}.*`)
	docs := []string{
		"mail alice@example now",
		"no at sign here",
		"",
		"bob@site and carol@host",
		"mail alice@example now", // repeat: exercises arena reuse
	}
	all, err := sp.EvalAll(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	for i, doc := range docs {
		want, err := sp.Eval(doc)
		if err != nil {
			t.Fatal(err)
		}
		it, err := sp.Iterate(context.Background(), doc)
		if err != nil {
			t.Fatal(err)
		}
		var got []spanjoin.Match
		for m, ok := it.Next(); ok; m, ok = it.Next() {
			got = append(got, m)
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(matchStrings(got)) != fmt.Sprint(matchStrings(want)) {
			t.Fatalf("doc %q: stream %v, eval %v", doc, got, want)
		}
		if fmt.Sprint(matchStrings(all[i])) != fmt.Sprint(matchStrings(want)) {
			t.Fatalf("doc %q: EvalAll %v, Eval %v", doc, all[i], want)
		}
	}
}

// TestEvalAllAgainstEval: the batch returns per-document Eval's matches
// in per-document order.
func TestEvalAllAgainstEval(t *testing.T) {
	sp := spanjoin.MustCompile(`.*x{a+}.*y{b+}.*`)
	docs := []string{"aabb", "", "ba", "abab", "bbaa"}
	all, err := sp.EvalAll(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	for i, doc := range docs {
		want, err := sp.Eval(doc)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(matchStrings(all[i])) != fmt.Sprint(matchStrings(want)) {
			t.Fatalf("doc %q: EvalAll %v, Eval %v", doc, all[i], want)
		}
	}
}

// TestEvalAllPrefilter: a document the required-literal prefilter
// excludes gets no matches, and the matching document after it is still
// evaluated.
func TestEvalAllPrefilter(t *testing.T) {
	sp := spanjoin.MustCompile(`.*x{Belgium}.*`)
	out, err := sp.EvalAll(context.Background(), []string{"no such country here", "visit Belgium today"})
	if err != nil || len(out) != 2 || len(out[0]) != 0 || len(out[1]) != 1 {
		t.Fatalf("EvalAll = %v, %v", out, err)
	}
	if ms, err := sp.Eval("no such country here"); err != nil || len(ms) != 0 {
		t.Fatalf("prefiltered Eval: %v, %v", ms, err)
	}
}

func TestEvalAllEmptyAndSingle(t *testing.T) {
	sp := spanjoin.MustCompile(`.*x{a}.*`)
	if out, err := sp.EvalAll(context.Background(), nil); err != nil || len(out) != 0 {
		t.Fatalf("empty docs: %v, %v", out, err)
	}
	out, err := sp.EvalAll(context.Background(), []string{"xax"})
	if err != nil || len(out) != 1 || len(out[0]) != 1 {
		t.Fatalf("single doc: %v, %v", out, err)
	}
}

// TestWorkerCountDefaults: zero and negative corpus worker counts mean
// GOMAXPROCS — the same matches in the same per-document order as
// EvalAll, no panic, no silent serialization into a wrong answer.
func TestWorkerCountDefaults(t *testing.T) {
	const pattern = `(a|b)*x{a+}(a|b)*`
	docs := []string{"aab", "bba", "abab", "", "aaaa", "b"}
	want, err := spanjoin.MustCompile(pattern).EvalAll(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, -1, -100} {
		c := spanjoin.NewCorpus(spanjoin.WithShards(3), spanjoin.WithWorkers(workers))
		ids := c.AddAll(docs...)
		got := evalAll(t, c, spanjoin.Anchored(pattern))
		for i, doc := range docs {
			if fmt.Sprint(matchStrings(got[ids[i]])) != fmt.Sprint(matchStrings(want[i])) {
				t.Fatalf("workers=%d doc %q: %v, want %v", workers, doc, got[ids[i]], want[i])
			}
		}
	}
}

// TestEvalAllCancellation: a cancelled context or an expired WithTimeout
// aborts the batch and surfaces its error instead of a partial result;
// WithLimit caps every document's match set.
func TestEvalAllCancellation(t *testing.T) {
	sp := spanjoin.MustCompile(`a*x{a*}a*`)
	docs := make([]string, 64)
	for i := range docs {
		docs[i] = strings.Repeat("a", 400)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out, err := sp.EvalAll(ctx, docs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (%d documents returned), want context.Canceled", err, len(out))
	}
	if out, err := sp.EvalAll(context.Background(), docs, spanjoin.WithTimeout(time.Nanosecond)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v (%d documents returned), want context.DeadlineExceeded", err, len(out))
	}
	// A live context still evaluates normally.
	live := []string{"aa", "a"}
	got, err := sp.EvalAll(context.Background(), live)
	if err != nil || len(got[0]) != 6 || len(got[1]) != 3 {
		t.Fatalf("live ctx: %v (err %v), want 6 and 3 matches", got, err)
	}
	capped, err := sp.EvalAll(context.Background(), live, spanjoin.WithLimit(4))
	if err != nil || len(capped[0]) != 4 || len(capped[1]) != 3 {
		t.Fatalf("WithLimit(4): %v (err %v), want 4 and 3 matches", capped, err)
	}
	if fmt.Sprint(matchStrings(capped[0])) != fmt.Sprint(matchStrings(got[0][:4])) {
		t.Fatalf("WithLimit(4) = %v, want the first four of %v", capped[0], got[0])
	}
}
