package spanjoin_test

import (
	"bytes"
	"context"
	"fmt"

	"spanjoin"
)

// The basic extraction loop: compile a pattern with capture variables and
// stream its matches.
func ExampleCompile() {
	sp := spanjoin.MustCompile(`.* key{[a-z]+}=val{[0-9]+} .*`)
	it, _ := sp.Iterate(context.Background(), "set timeout=30 now")
	for m, ok := it.Next(); ok; m, ok = it.Next() {
		fmt.Println(m.MustSubstr("key"), "->", m.MustSubstr("val"))
	}
	// spanlint/closecheck: a failure here must not read as exhaustion.
	if err := it.Err(); err != nil {
		fmt.Println("iterate failed:", err)
	}
	// Output:
	// timeout -> 30
}

// Evaluating one pattern over a whole corpus: documents live in a sharded
// store, the compiled pattern is cached, and results stream per document.
func ExampleCorpus() {
	c := spanjoin.NewCorpus(spanjoin.WithShards(4))
	ids := c.AddAll(
		"order id=alpha42 shipped",
		"no ids here",
		"retry id=beta7 queued",
	)
	ms, err := c.Eval(context.Background(), spanjoin.Anchored(`.*id=x{[a-z]+[0-9]+} .*`))
	if err != nil {
		fmt.Println("eval failed:", err)
		return
	}
	defer ms.Close()
	byDoc := make(map[spanjoin.DocID][]spanjoin.Match)
	for m, ok := ms.Next(); ok; m, ok = ms.Next() {
		byDoc[m.Doc] = append(byDoc[m.Doc], m.Match)
	}
	if err := ms.Err(); err != nil {
		fmt.Println("eval failed:", err)
	}
	for i, id := range ids {
		for _, m := range byDoc[id] {
			fmt.Println("doc", i, "->", m.MustSubstr("x"))
		}
	}
	fmt.Println("compiles:", c.CacheStats().Misses)
	// Output:
	// doc 0 -> alpha42
	// doc 2 -> beta7
	// compiles: 1
}

// CompileSearch wraps the pattern in Σ*·α·Σ*, matching anywhere.
func ExampleCompileSearch() {
	sp := spanjoin.MustCompileSearch(`x{ab}`)
	ms, _ := sp.Eval("abxab")
	for _, m := range ms {
		p, _ := m.Span("x")
		fmt.Println(p)
	}
	// Output:
	// [4,6⟩
	// [1,3⟩
}

// A conjunctive query joining two extractions on a shared variable, with a
// projection.
func ExampleNewQuery() {
	q := spanjoin.NewQuery().
		AtomNamed("runs", `.*x{a+}.*`).  // x is a run of a's ...
		AtomNamed("pairs", `.*x{aa}.*`). // ... of length exactly 2
		Project("x").
		MustBuild()
	ms, _ := q.Evaluate("baab aa")
	for _, m := range ms {
		p, _ := m.Span("x")
		fmt.Println(p, m.MustSubstr("x"))
	}
	// Output:
	// [2,4⟩ aa
	// [6,8⟩ aa
}

// String-equality selections compare substrings, not positions: the two
// variables below match distinct occurrences of the same word.
func ExampleQueryBuilder_Equal() {
	q := spanjoin.NewQuery().
		AtomNamed("two", `x{[a-z]+} .* y{[a-z]+}`).
		Equal("x", "y").
		MustBuild()
	ms, _ := q.Evaluate("echo foo echo")
	for _, m := range ms {
		fmt.Println(m.MustSubstr("x"))
	}
	// Output:
	// echo
}

// Joins compare spans: the composed spanner keeps only assignments where
// both inputs place x at the same positions.
func ExampleJoin() {
	runs := spanjoin.MustCompileSearch("x{b+}")
	caps := spanjoin.MustCompile("..x{..}..") // x = exact middle of a 6-char doc
	j, _ := spanjoin.Join(runs, caps)
	ms, _ := j.Eval("abbbba")
	for _, m := range ms {
		p, _ := m.Span("x")
		fmt.Println(p, m.MustSubstr("x"))
	}
	// Output:
	// [3,5⟩ bb
}

// Save and Load round-trip a compiled spanner, e.g. to cache an expensive
// join.
func ExampleSpanner_Save() {
	a := spanjoin.MustCompileSearch("x{ab+}")
	var buf bytes.Buffer
	_ = a.Save(&buf)
	back, _ := spanjoin.Load(&buf)
	ms, _ := back.Eval("xabbx")
	fmt.Println(len(ms))
	// Output:
	// 2
}

// MatchesAt answers membership for one concrete assignment without
// enumerating anything else.
func ExampleSpanner_MatchesAt() {
	sp := spanjoin.MustCompileSearch("x{a+}")
	ok, _ := sp.MatchesAt("baaab", map[string]spanjoin.Span{
		"x": {Start: 2, End: 5},
	})
	fmt.Println(ok)
	// Output:
	// true
}

// Paginating a corpus-wide result set: each page costs one ranked DAG
// descent into its first document plus a counting sweep — never an
// enumeration of the results before (or after) the window — and the
// exact total rides along. The compiled query is cached across pages.
func ExampleCorpus_pagination() {
	c := spanjoin.NewCorpus(spanjoin.WithShards(1))
	c.AddAll(
		"aa log",
		"log only",
		"aaa log",
	)
	const pattern = `.*x{a+}.*`
	for offset := uint64(0); ; offset += 3 {
		page, _ := c.Page(context.Background(), spanjoin.Anchored(pattern), offset, 3)
		if len(page.Matches) == 0 {
			break
		}
		fmt.Printf("page at %d (of %v total):\n", offset, page.Total)
		for _, m := range page.Matches {
			p, _ := m.Match.Span("x")
			fmt.Println("  doc", m.Doc, "x =", p)
		}
	}
	st := c.CacheStats()
	fmt.Printf("compiles: %d, cache hits: %d\n", st.Misses, st.Hits)
	// Output:
	// page at 0 (of 9 total):
	//   doc 0 x = [2,3⟩
	//   doc 0 x = [1,3⟩
	//   doc 0 x = [1,2⟩
	// page at 3 (of 9 total):
	//   doc 2 x = [3,4⟩
	//   doc 2 x = [2,4⟩
	//   doc 2 x = [2,3⟩
	// page at 6 (of 9 total):
	//   doc 2 x = [1,4⟩
	//   doc 2 x = [1,3⟩
	//   doc 2 x = [1,2⟩
	// compiles: 1, cache hits: 3
}
