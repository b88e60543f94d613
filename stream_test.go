package spanjoin_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"spanjoin"
)

func matchStrings(ms []spanjoin.Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.String()
	}
	return out
}

func TestStreamMatchesEval(t *testing.T) {
	sp := spanjoin.MustCompile(`.*x{[a-z]+}@y{[a-z]+}.*`)
	docs := []string{
		"mail alice@example now",
		"no at sign here",
		"",
		"bob@site and carol@host",
		"mail alice@example now", // repeat: exercises arena reuse
	}
	st := sp.NewStream()
	for _, doc := range docs {
		want, err := sp.Eval(doc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Eval(doc)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(matchStrings(got)) != fmt.Sprint(matchStrings(want)) {
			t.Fatalf("doc %q: stream %v, eval %v", doc, got, want)
		}
	}
}

func TestStreamPrefilter(t *testing.T) {
	sp := spanjoin.MustCompile(`.*x{Belgium}.*`)
	st := sp.NewStream()
	ms, err := st.Eval("no such country here")
	if err != nil || len(ms) != 0 {
		t.Fatalf("prefiltered doc: %v, %v", ms, err)
	}
	ms, err = st.Eval("visit Belgium today")
	if err != nil || len(ms) != 1 {
		t.Fatalf("matching doc after prefiltered doc: %v, %v", ms, err)
	}
}

func TestEvalAllAgainstEval(t *testing.T) {
	sp := spanjoin.MustCompile(`.*x{a+}.*y{b+}.*`)
	docs := []string{"aabb", "", "ba", "abab", "bbaa"}
	seq, err := sp.EvalAll(docs)
	if err != nil {
		t.Fatal(err)
	}
	par, err := sp.EvalAllParallel(docs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, doc := range docs {
		want, err := sp.Eval(doc)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(matchStrings(seq[i])) != fmt.Sprint(matchStrings(want)) {
			t.Fatalf("EvalAll doc %q: %v vs %v", doc, seq[i], want)
		}
		if fmt.Sprint(matchStrings(par[i])) != fmt.Sprint(matchStrings(want)) {
			t.Fatalf("EvalAllParallel doc %q: %v vs %v", doc, par[i], want)
		}
	}
}

func TestEvalAllParallelEmptyAndSingle(t *testing.T) {
	sp := spanjoin.MustCompile(`.*x{a}.*`)
	if out, err := sp.EvalAllParallel(nil, 4); err != nil || len(out) != 0 {
		t.Fatalf("empty docs: %v, %v", out, err)
	}
	out, err := sp.EvalAllParallel([]string{"xax"}, 8)
	if err != nil || len(out) != 1 || len(out[0]) != 1 {
		t.Fatalf("single doc: %v, %v", out, err)
	}
}

// TestWorkerCountDefaults: zero and negative worker counts mean
// GOMAXPROCS — the same matches in the same order as EvalAll, no panic,
// no silent serialization into a wrong answer.
func TestWorkerCountDefaults(t *testing.T) {
	sp := spanjoin.MustCompile(`(a|b)*x{a+}(a|b)*`)
	docs := []string{"aab", "bba", "abab", "", "aaaa", "b"}
	want, err := sp.EvalAll(docs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, -1, -100} {
		got, err := sp.EvalAllParallel(docs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, doc := range docs {
			if fmt.Sprint(matchStrings(got[i])) != fmt.Sprint(matchStrings(want[i])) {
				t.Fatalf("workers=%d doc %q: %v, want %v", workers, doc, got[i], want[i])
			}
		}
	}
}

// TestEvalAllParallelCtxCancellation: a cancelled context must abort the
// batch and surface the context error instead of a partial result.
func TestEvalAllParallelCtxCancellation(t *testing.T) {
	sp := spanjoin.MustCompile(`a*x{a*}a*`)
	docs := make([]string, 64)
	for i := range docs {
		docs[i] = strings.Repeat("a", 400)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out, err := sp.EvalAllParallelCtx(ctx, docs, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (%d documents returned), want context.Canceled", err, len(out))
	}
	// A live context still evaluates normally.
	live := []string{"aa"}
	want, err := sp.EvalAll(live)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sp.EvalAllParallelCtx(context.Background(), live, 0)
	if err != nil || len(got[0]) != 6 || fmt.Sprint(matchStrings(got[0])) != fmt.Sprint(matchStrings(want[0])) {
		t.Fatalf("live ctx: %v (err %v), want %v", got, err, want)
	}
}
