package corpus

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"spanjoin/internal/enum"
	"spanjoin/internal/prefilter"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
)

// evalVSA streams the automaton over the store through EvalPlan.
func evalVSA(ctx context.Context, s *Store, a *vsa.VSA, opt EvalOptions) (*Results, error) {
	p, err := enum.NewPlan(a)
	if err != nil {
		return nil, err
	}
	return s.EvalPlan(ctx, p, opt)
}

func drainResults(t *testing.T, r *Results) map[DocID][]span.Tuple {
	t.Helper()
	out := make(map[DocID][]span.Tuple)
	for {
		res, ok := r.Next()
		if !ok {
			break
		}
		out[res.Doc] = append(out[res.Doc], res.Tuple)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEvalMatchesPerDocumentEnum: the sharded fan-out must produce, per
// document, exactly the sequential enumeration — same tuples, same order.
func TestEvalMatchesPerDocumentEnum(t *testing.T) {
	a := rgx.MustCompilePattern(`(a|b)*x{a+}(a|b)*`)
	s := NewStore(4)
	docs := []string{"aba", "bb", "", "aaab", "ba", "abab", "a", "baab", "bbba"}
	ids := make([]DocID, len(docs))
	for i, d := range docs {
		ids[i] = s.Add(d)
	}
	for _, workers := range []int{0, 1, 3, 8} {
		res, err := evalVSA(context.Background(), s, a, EvalOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := drainResults(t, res)
		for i, d := range docs {
			_, want, err := enum.Eval(a, d)
			if err != nil {
				t.Fatal(err)
			}
			have := got[ids[i]]
			if len(have) != len(want) {
				t.Fatalf("workers=%d doc %q: %d tuples, want %d", workers, d, len(have), len(want))
			}
			for k := range want {
				if have[k].Compare(want[k]) != 0 {
					t.Fatalf("workers=%d doc %q tuple %d: %v, want %v (order must match)", workers, d, k, have[k], want[k])
				}
			}
		}
	}
}

func TestEvalEmptyStore(t *testing.T) {
	a := rgx.MustCompilePattern(`x{a}`)
	res, err := evalVSA(context.Background(), NewStore(3), a, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := drainResults(t, res); len(got) != 0 {
		t.Fatalf("got %d docs with results from empty store", len(got))
	}
	res.Close() // must be safe on an exhausted stream
	if res.Scanned() != 0 || res.Skipped() != 0 {
		t.Fatalf("stats = %d/%d, want 0/0", res.Scanned(), res.Skipped())
	}
}

func TestEvalRequiredLiteralPrefilter(t *testing.T) {
	a := rgx.MustCompilePattern(`(a|b|c)*x{needle}(a|b|c)*`)
	s := NewStore(2)
	hit := s.Add("aaneedlebb")
	s.Add("abcabc")
	res, err := evalVSA(context.Background(), s, a, EvalOptions{Required: prefilter.New("needle")})
	if err != nil {
		t.Fatal(err)
	}
	got := drainResults(t, res)
	if len(got) != 1 || len(got[hit]) != 1 {
		t.Fatalf("got %v, want exactly one tuple for the needle doc", got)
	}
}

// TestEvalCancellation: cancelling the context mid-stream must terminate
// the stream promptly and surface the context's error.
func TestEvalCancellation(t *testing.T) {
	a := rgx.MustCompilePattern(`a*x{a*}a*`) // quadratic result count per doc
	s := NewStore(4)
	big := ""
	for i := 0; i < 200; i++ {
		big += "a"
	}
	for i := 0; i < 32; i++ {
		s.Add(big)
	}
	ctx, cancel := context.WithCancel(context.Background())
	res, err := evalVSA(ctx, s, a, EvalOptions{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, ok := res.Next(); !ok {
			t.Fatal("stream ended before cancellation")
		}
	}
	cancel()
	n := 0
	for {
		_, ok := res.Next()
		if !ok {
			break
		}
		n++
	}
	// At most the buffered window plus one in-flight send per worker can
	// trail the cancellation.
	if n > 1024 {
		t.Fatalf("%d results after cancel — cancellation not propagating", n)
	}
	if err := res.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
}

func TestEvalCloseAbandonsStream(t *testing.T) {
	a := rgx.MustCompilePattern(`a*x{a*}a*`)
	s := NewStore(2)
	for i := 0; i < 8; i++ {
		s.Add("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa")
	}
	res, err := evalVSA(context.Background(), s, a, EvalOptions{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Next(); !ok {
		t.Fatal("no first result")
	}
	res.Close()
	res.Close() // idempotent
	if err := res.Err(); err != nil {
		t.Fatalf("Err after Close = %v, want nil (deliberate abandonment)", err)
	}
}

// TestEvalFuncErrorAborts: an evaluator error must cancel the whole
// evaluation and surface through Err.
func TestEvalFuncErrorAborts(t *testing.T) {
	s := NewStore(4)
	for i := 0; i < 16; i++ {
		s.Add(fmt.Sprintf("doc-%d", i))
	}
	boom := errors.New("doc exploded")
	newEval := func(func() bool) DocEval {
		return func(doc string, emit func(span.Tuple) bool) error {
			if doc == "doc-7" {
				return boom
			}
			return nil
		}
	}
	res, err := s.EvalFunc(context.Background(), span.NewVarList("x"), newEval, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := res.Next(); !ok {
			break
		}
	}
	if err := res.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err = %v, want %v", err, boom)
	}
}

// TestEvalSeesSnapshotAtCall: documents present before Eval are always
// included, even when Adds race with the evaluation.
func TestEvalSeesSnapshotAtCall(t *testing.T) {
	a := rgx.MustCompilePattern(`x{a+}`)
	s := NewStore(4)
	var pre []DocID
	for i := 0; i < 20; i++ {
		pre = append(pre, s.Add("aaa"))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s.Add("aaa")
		}
	}()
	res, err := evalVSA(context.Background(), s, a, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := drainResults(t, res)
	<-done
	for _, id := range pre {
		if len(got[id]) == 0 {
			t.Fatalf("doc %d added before Eval missing from results", id)
		}
	}
}

// TestEvalIndexedCandidates: with the skip index on, non-candidate
// documents are skipped without a scan, results match the unindexed run,
// and the stats account for every snapshot document.
func TestEvalIndexedCandidates(t *testing.T) {
	a := rgx.MustCompilePattern(`(a|b|c|n|e|d|l)*x{needle}(a|b|c|n|e|d|l)*`)
	req := prefilter.New("needle")
	docs := []string{"aaneedlebb", "abcabc", "cc", "needle", "nee", "dle", "abcneedle"}
	for _, indexed := range []bool{false, true} {
		s := NewStore(2)
		if indexed {
			s.EnableIndex()
			if !s.Indexed() {
				t.Fatal("Indexed() = false after EnableIndex")
			}
		}
		ids := make([]DocID, len(docs))
		for i, d := range docs {
			ids[i] = s.Add(d)
		}
		res, err := evalVSA(context.Background(), s, a, EvalOptions{Required: req})
		if err != nil {
			t.Fatal(err)
		}
		got := drainResults(t, res)
		for i, d := range docs {
			_, want, err := enum.Eval(a, d)
			if err != nil {
				t.Fatal(err)
			}
			if len(got[ids[i]]) != len(want) {
				t.Fatalf("indexed=%v doc %q: %d tuples, want %d", indexed, d, len(got[ids[i]]), len(want))
			}
		}
		if n := res.Scanned() + res.Skipped(); n != uint64(len(docs)) {
			t.Fatalf("indexed=%v: scanned+skipped = %d, want %d", indexed, n, len(docs))
		}
		if res.Scanned() != 3 { // exactly the three docs containing "needle"
			t.Fatalf("indexed=%v: scanned = %d, want 3", indexed, res.Scanned())
		}
	}
}

// TestEvalIndexBackfill: EnableIndex after Adds must index the existing
// documents (and stay idempotent).
func TestEvalIndexBackfill(t *testing.T) {
	a := rgx.MustCompilePattern(`(s|i|g|n|a|l| )*x{signal}(s|i|g|n|a|l| )*`)
	s := NewStore(4)
	hit := s.Add("a signal in noise"[3:]) // "ignal in noise" — no match
	_ = hit
	want := s.Add("signal signal")
	s.Add("nothing")
	s.EnableIndex()
	s.EnableIndex() // idempotent
	s.Add("late signal")
	res, err := evalVSA(context.Background(), s, a, EvalOptions{Required: prefilter.New("signal")})
	if err != nil {
		t.Fatal(err)
	}
	got := drainResults(t, res)
	if len(got[want]) == 0 {
		t.Fatal("backfilled document lost its matches")
	}
	if res.Skipped() == 0 {
		t.Fatal("index skipped nothing")
	}
}
