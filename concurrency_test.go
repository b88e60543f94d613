package spanjoin_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"spanjoin"
	"spanjoin/internal/workload"
)

// TestConcurrentEvaluation: a compiled Spanner is immutable and must be
// safe for concurrent use; every goroutine gets identical results.
func TestConcurrentEvaluation(t *testing.T) {
	sp := spanjoin.MustCompileSearch(`mail{[a-z]+@[a-z]+\.[a-z]+}`)
	doc := workload.Document(workload.Rand(55), workload.DocumentOptions{
		Sentences: 20, EmailRate: 0.5,
	})
	ref, err := sp.Eval(doc)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms, err := sp.Eval(doc)
			if err != nil {
				errs <- err
				return
			}
			if len(ms) != len(ref) {
				errs <- errMismatch{len(ms), len(ref)}
				return
			}
			for i := range ms {
				a, _ := ms[i].Span("mail")
				b, _ := ref[i].Span("mail")
				if a != b {
					errs <- errMismatch{i, i}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentQueries: queries too, across strategies.
func TestConcurrentQueries(t *testing.T) {
	doc := workload.Logs(workload.Rand(66), 30)
	q := spanjoin.NewQuery().
		AtomNamed("op", `.*x{[A-Z]+} op=y{[a-z]+} .*`).
		MustBuild()
	ref, err := q.Count(doc)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		strat := spanjoin.StrategyAutomata
		if g%2 == 0 {
			strat = spanjoin.StrategyCanonical
		}
		wg.Add(1)
		go func(s spanjoin.Strategy) {
			defer wg.Done()
			n, err := q.Count(doc, spanjoin.WithStrategy(s))
			if err != nil {
				errs <- err
				return
			}
			if n.String() != ref.String() {
				errs <- errMismatch{n.String(), ref.String()}
			}
		}(strat)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errMismatch struct{ got, want any }

func (e errMismatch) Error() string { return "concurrent result mismatch" }

// TestQueryMemoFirstUseConcurrent: eight goroutines share one fresh Query
// and one fresh UnionQuery, each starting at a different operation, so
// the first uses — Evaluate on the automata plan and under Auto,
// Query.Count, and corpus Eval and Count of OfQuery and OfUnion — race for
// the compiled form the two memoize, the Auto planner's verdict and the
// spanner's plan. Every result must equal a
// sequential reference from a twin pair built alike.
func TestQueryMemoFirstUseConcurrent(t *testing.T) {
	docs := []string{
		"ts=1 ERROR op=write id=ab ",
		"ts=2 WARN op=read id=cd ",
		"ts=3 INFO op=list ",
		"ts=4 ERROR op=sync WARN op=flush ",
		"",
	}
	build := func() (*spanjoin.Query, *spanjoin.UnionQuery) {
		second := `.*x{[A-Z]+} op=y{[a-z]+} .*`
		q := spanjoin.NewQuery().Atom(`.*x{ERROR} op=.*`).Atom(second).MustBuild()
		u, err := spanjoin.NewUnion(q, spanjoin.NewQuery().Atom(`.*x{WARN} op=.*`).Atom(second).MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		return q, u
	}
	c := spanjoin.NewCorpus(spanjoin.WithShards(2), spanjoin.WithWorkers(2))
	c.AddAll(docs...)
	ctx := context.Background()
	automata := spanjoin.WithStrategy(spanjoin.StrategyAutomata)
	evaluate := func(eval func(string, ...spanjoin.Option) ([]spanjoin.Match, error)) (string, error) {
		var sb strings.Builder
		for _, doc := range docs {
			ms, err := eval(doc, automata)
			if err != nil {
				return "", err
			}
			fmt.Fprintln(&sb, ms)
		}
		return sb.String(), nil
	}
	corpusEval := func(target spanjoin.Target) (string, error) {
		ms, err := c.Eval(ctx, target)
		if err != nil {
			return "", err
		}
		defer ms.Close()
		var rows []string
		for {
			m, ok := ms.Next()
			if !ok {
				break
			}
			rows = append(rows, fmt.Sprintf("%d %v", m.Doc, m.Match))
		}
		sort.Strings(rows)
		return strings.Join(rows, "\n"), ms.Err()
	}
	ops := []func(*spanjoin.Query, *spanjoin.UnionQuery) (string, error){
		func(q *spanjoin.Query, _ *spanjoin.UnionQuery) (string, error) { return evaluate(q.Evaluate) },
		func(_ *spanjoin.Query, u *spanjoin.UnionQuery) (string, error) { return evaluate(u.Evaluate) },
		func(q *spanjoin.Query, _ *spanjoin.UnionQuery) (string, error) {
			var sb strings.Builder
			for _, doc := range docs {
				n, err := q.Count(doc)
				if err != nil {
					return "", err
				}
				fmt.Fprintln(&sb, n)
			}
			return sb.String(), nil
		},
		func(q *spanjoin.Query, _ *spanjoin.UnionQuery) (string, error) {
			return corpusEval(spanjoin.OfQuery(q))
		},
		func(_ *spanjoin.Query, u *spanjoin.UnionQuery) (string, error) {
			return corpusEval(spanjoin.OfUnion(u))
		},
		func(q *spanjoin.Query, u *spanjoin.UnionQuery) (string, error) {
			nq, err := c.Count(ctx, spanjoin.OfQuery(q))
			if err != nil {
				return "", err
			}
			nu, err := c.Count(ctx, spanjoin.OfUnion(u))
			return fmt.Sprint(nq, nu), err
		},
		func(q *spanjoin.Query, u *spanjoin.UnionQuery) (string, error) {
			// Under Auto, which resolves the planner once per query.
			mq, err := q.Evaluate(docs[3])
			if err != nil {
				return "", err
			}
			mu, err := u.Evaluate(docs[3])
			return fmt.Sprint(q.PlannedStrategy(), mq, mu), err
		},
	}
	refQ, refU := build()
	want := make([]string, len(ops))
	for i, op := range ops {
		var err error
		if want[i], err = op(refQ, refU); err != nil {
			t.Fatal(err)
		}
	}
	if want[5] != "2 4" {
		t.Fatalf("reference counts %q, want 2 ERROR and 4 ERROR-or-WARN tuples", want[5])
	}

	q, u := build()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := range ops {
				i := (g + k) % len(ops)
				got, err := ops[i](q, u)
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[i] {
					t.Errorf("goroutine %d, operation %d:\n got %s\nwant %s", g, i, got, want[i])
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}
