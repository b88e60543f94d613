// Benchmarks regenerating the experiment tables of EXPERIMENTS.md, one
// benchmark family per experiment (E1–E10). cmd/spanbench prints the same
// measurements as formatted tables with derived columns; these testing.B
// targets provide ns/op and allocation profiles for the same workloads.
package spanjoin_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"spanjoin"
	"spanjoin/internal/alphabet"
	"spanjoin/internal/core"
	"spanjoin/internal/enum"
	"spanjoin/internal/reductions"
	"spanjoin/internal/rel"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
	"spanjoin/internal/strequal"
	"spanjoin/internal/vsa"
	"spanjoin/internal/workload"
)

// BenchmarkE1_DelayVsStringLength measures full enumeration (preprocessing
// plus up to 2000 tuples) as |s| grows; Thm 3.3 predicts linear growth in
// |s| for a fixed automaton.
func BenchmarkE1_DelayVsStringLength(b *testing.B) {
	a := rgx.MustCompilePattern(".*x{a+}.*y{b+}.*")
	for _, n := range []int{128, 256, 512, 1024} {
		s := workload.RandomString(workload.Rand(1), n, 2)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := enum.Prepare(a, s)
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < 2000; k++ {
					if _, ok := e.Next(); !ok {
						break
					}
				}
			}
		})
	}
}

// BenchmarkE1_DelayVsStates grows the automaton (v independent variables)
// at fixed |s|; the delay bound is O(n²·|s|).
func BenchmarkE1_DelayVsStates(b *testing.B) {
	s := workload.RandomString(workload.Rand(2), 256, 2)
	for v := 1; v <= 4; v++ {
		var sb strings.Builder
		sb.WriteString(".*")
		for i := 1; i <= v; i++ {
			fmt.Fprintf(&sb, "x%d{a}.*", i)
		}
		a := rgx.MustCompilePattern(sb.String())
		b.Run(fmt.Sprintf("vars=%d", v), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := enum.Prepare(a, s)
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < 500; k++ {
					if _, ok := e.Next(); !ok {
						break
					}
				}
			}
		})
	}
}

// BenchmarkE2_CompileLinear: regex → functional vset-automaton (Lemma 3.4).
func BenchmarkE2_CompileLinear(b *testing.B) {
	for _, k := range []int{16, 64, 256, 1024} {
		pattern := strings.Repeat("a*b", k) + "x{a+}" + strings.Repeat("b*a", k)
		b.Run(fmt.Sprintf("bytes=%d", len(pattern)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rgx.CompilePattern(pattern); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3_JoinConstruction: binary join cost as both inputs grow
// (Lemma 3.10).
func BenchmarkE3_JoinConstruction(b *testing.B) {
	for _, m := range []int{4, 8, 16, 32} {
		a1 := rgx.MustCompilePattern(strings.Repeat("(a|b)", m) + ".*x{a+}.*")
		a2 := rgx.MustCompilePattern(".*x{a+}.*" + strings.Repeat("(b|a)", m))
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := vsa.Join(a1, a2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3_KWayBlowup: k-way join (the O(n^2k) growth discussed after
// Lemma 3.10).
func BenchmarkE3_KWayBlowup(b *testing.B) {
	for k := 2; k <= 5; k++ {
		autos := make([]*vsa.VSA, k)
		for i := range autos {
			autos[i] = rgx.MustCompilePattern(fmt.Sprintf(".*x%d{a+}.*", i+1))
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := vsa.JoinAll(autos...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func introCQ() *core.CQ {
	mk := func(name, p string) *core.Atom {
		a, err := core.NewAtom(name, p)
		if err != nil {
			panic(err)
		}
		return a
	}
	return &core.CQ{
		Atoms: []*core.Atom{
			mk("sen", `(.*\. )?x{[A-Za-z0-9 ]+\.}( .*)?`),
			mk("adr", `.*y{[A-Za-z]+ z{Belgium}}.*`),
			mk("subYX", `.*x{.*y{.*}.*}.*`),
			mk("plc", `.*w{police}.*`),
			mk("subWX", `.*x{.*w{.*}.*}.*`),
		},
		Projection: span.NewVarList("x"),
	}
}

// BenchmarkE4_KUCQ_Automata: the intro IE query under the compiled-automata
// plan (Thm 3.11), scaling the document.
func BenchmarkE4_KUCQ_Automata(b *testing.B) {
	for _, sc := range []int{2, 4, 8, 16} {
		doc := workload.Document(workload.Rand(42), workload.DocumentOptions{
			Sentences: sc, AddressRate: 0.5, PoliceRate: 0.5,
		})
		q := introCQ()
		b.Run(fmt.Sprintf("sentences=%d", sc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := q.Eval(doc, core.Options{Strategy: core.Automata}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4_KUCQ_Canonical: the same query under the canonical relational
// plan — the Θ(|s|⁴) subspan atoms keep this to tiny documents (§3.2).
func BenchmarkE4_KUCQ_Canonical(b *testing.B) {
	doc := workload.Document(workload.Rand(42), workload.DocumentOptions{
		Sentences: 1, AddressRate: 1, PoliceRate: 1,
	})
	q := introCQ()
	b.Run("sentences=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := q.Eval(doc, core.Options{Strategy: core.Canonical}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE5_SatReduction: Thm 3.1 — SAT via Boolean regex CQs on "a".
func BenchmarkE5_SatReduction(b *testing.B) {
	for _, n := range []int{6, 8, 10} {
		cnf := workload.RandomCNF(workload.Rand(int64(100+n)), n, int(4.2*float64(n)))
		b.Run(fmt.Sprintf("vars=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := reductions.Satisfiable(cnf, core.Options{Strategy: core.Automata}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6_CliqueReduction: Thm 3.2 — k-clique via gamma-acyclic CQs.
func BenchmarkE6_CliqueReduction(b *testing.B) {
	for _, n := range []int{8, 10, 12} {
		g := workload.RandomGraph(workload.Rand(int64(200+n)), n, 0.5)
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := reductions.FindClique(g, 3, core.Options{Strategy: core.Canonical}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func logChain(b *testing.B, lines int) (*rel.JoinTree, []*rel.Relation) {
	b.Helper()
	doc := workload.Logs(workload.Rand(7), lines)
	patterns := []string{
		`.*x{ERROR} op=.*`,
		`.*x{[A-Z]+} op=y{[a-z]+} .*`,
		`.*op=y{[a-z]+} id=z{[0-9a-f]+} .*`,
	}
	rels := make([]*rel.Relation, len(patterns))
	var edges []span.VarList
	for i, p := range patterns {
		a := rgx.MustCompilePattern(p)
		vars, tuples, err := enum.Eval(a, doc)
		if err != nil {
			b.Fatal(err)
		}
		rels[i] = rel.FromTuples(vars, tuples)
		edges = append(edges, vars)
	}
	tree, ok := (&rel.Hypergraph{Edges: edges}).IsAcyclic()
	if !ok {
		b.Fatal("chain should be acyclic")
	}
	return tree, rels
}

// BenchmarkE7_Yannakakis vs BenchmarkE7_GreedyJoin: the canonical plan's
// join algorithms on materialized acyclic relations (Thm 3.5).
func BenchmarkE7_Yannakakis(b *testing.B) {
	for _, lines := range []int{50, 100, 200} {
		tree, rels := logChain(b, lines)
		out := span.NewVarList("x", "y", "z")
		b.Run(fmt.Sprintf("lines=%d", lines), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rel.Yannakakis(tree, rels, out)
			}
		})
	}
}

func BenchmarkE7_GreedyJoin(b *testing.B) {
	for _, lines := range []int{50, 100, 200} {
		_, rels := logChain(b, lines)
		out := span.NewVarList("x", "y", "z")
		b.Run(fmt.Sprintf("lines=%d", lines), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rel.JoinAllGreedy(rels).Project(out)
			}
		})
	}
}

// BenchmarkE7_KeyAttribute: the planner's polynomial-boundedness check.
func BenchmarkE7_KeyAttribute(b *testing.B) {
	a := rgx.MustCompilePattern(`.*x{[A-Z]+} op=y{[a-z]+} .*`)
	b.Run("logs-atom", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := vsa.HasKeyAttribute(a); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE8_AeqSize: runtime construction of the string-equality
// automaton on the worst-case string aⁿ (Thm 5.4, Θ(N³) states).
func BenchmarkE8_AeqSize(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		s := strings.Repeat("a", n)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := strequal.Build(s, "x", "y"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8_StringEquality: end-to-end ζ= evaluation (Cor 5.5).
func BenchmarkE8_StringEquality(b *testing.B) {
	base := rgx.MustCompilePattern(".*x{a+}.*y{a+}.*")
	for _, n := range []int{8, 12, 16} {
		s := workload.RepetitiveString(workload.Rand(5), n)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				joined, err := strequal.Apply(base, s, [][2]string{{"x", "y"}})
				if err != nil {
					b.Fatal(err)
				}
				e, err := enum.Prepare(joined, s)
				if err != nil {
					b.Fatal(err)
				}
				// Drain explicitly: this benchmark times the enumeration
				// (Count is now the ranked DP and would skip it).
				for {
					if _, ok := e.Next(); !ok {
						break
					}
				}
			}
		})
	}
}

// BenchmarkE9_KeyAttrScaling: Prop 3.6's product construction as the
// automaton grows.
func BenchmarkE9_KeyAttrScaling(b *testing.B) {
	for _, m := range []int{4, 8, 16, 32} {
		a := rgx.MustCompilePattern(strings.Repeat("(a|b)", m) + "x{a}y{.}(a|b)*")
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := vsa.KeyAttribute(a, "x"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10_FunctionalizeBlowup: the (state × configuration) product —
// exponential in the variable count.
func BenchmarkE10_FunctionalizeBlowup(b *testing.B) {
	for v := 2; v <= 6; v++ {
		vars := make([]string, v)
		for i := range vars {
			vars[i] = fmt.Sprintf("x%d", i)
		}
		a := &vsa.VSA{Vars: span.NewVarList(vars...), Adj: make([][]vsa.Tr, 1), Init: 0, Final: 0}
		for i := 0; i < v; i++ {
			a.AddOpen(0, int32(i), 0)
			a.AddClose(0, int32(i), 0)
		}
		a.AddChar(0, alphabet.Single('a'), 0)
		b.Run(fmt.Sprintf("v=%d", v), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vsa.Functionalize(a)
			}
		})
	}
}

// BenchmarkTransitionTable measures the transition table build — the
// boundary closures, one depth-first search per state into one scratch
// row, composed into the class matrices — as the automaton grows.
func BenchmarkTransitionTable(b *testing.B) {
	for _, m := range []int{8, 32, 128} {
		a := rgx.MustCompilePattern(strings.Repeat("(a|b)", m) + ".*x{a+}.*y{b+}.*")
		t, _, err := a.RequireFunctional()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("states=%d", t.NumStates()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vsa.NewTransitionTable(t)
			}
		})
	}
}

// BenchmarkDifference drains one spanner difference: the 126 matches of
// .*x{[a-z]+}.* on three copies of "the quick brown fox ", each filtered
// by the membership test of .*x{[a-z]*e[a-z]*}.*, which rejects the 9
// that hold an e. Both spanners' plans are warm after the first op.
func BenchmarkDifference(b *testing.B) {
	a := spanjoin.MustCompile(`.*x{[a-z]+}.*`)
	sub := spanjoin.MustCompile(`.*x{[a-z]*e[a-z]*}.*`)
	doc := strings.Repeat("the quick brown fox ", 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ms, err := spanjoin.Difference(a, sub, doc)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for _, ok := ms.Next(); ok; _, ok = ms.Next() {
			n++
		}
		if err := ms.Err(); err != nil || n != 117 {
			b.Fatalf("difference = %d matches (err %v), want 117", n, err)
		}
	}
}

// BenchmarkStreamReuse: many documents through one compiled pattern. Each
// Eval draws a fresh enumerator over the spanner's memoized plan and
// hands its graph arenas back to the pool when it is done, so the next
// document's build reuses them; the batch runs the same documents on the
// shard executor. allocs/op is the headline number: steady-state
// evaluation should allocate little beyond the returned matches.
func BenchmarkStreamReuse(b *testing.B) {
	sp := spanjoin.MustCompile(`.*x{[a-z]+}@y{[a-z]+}.*`)
	r := workload.Rand(21)
	docs := make([]string, 64)
	for i := range docs {
		docs[i] = workload.Document(r, workload.DocumentOptions{Sentences: 2, EmailRate: 0.5})
	}
	b.Run("fresh-prepare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, doc := range docs {
				if _, err := sp.Eval(doc); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("evalall", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sp.EvalAll(context.Background(), docs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPublicAPI_EmailExtraction exercises the documented quick-start
// path end to end.
func BenchmarkPublicAPI_EmailExtraction(b *testing.B) {
	sp := spanjoin.MustCompile(`.* mail{user{[a-z]+}@domain{[a-z]+\.[a-z]+}} .*`)
	doc := workload.Document(workload.Rand(3), workload.DocumentOptions{Sentences: 10, EmailRate: 0.6})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sp.Eval(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrefilterAblation: the required-literal prefilter (the paper's
// §6 "aggressive filtering" direction) on a non-matching document vs the
// same evaluation without a derivable literal.
func BenchmarkPrefilterAblation(b *testing.B) {
	doc := workload.Document(workload.Rand(9), workload.DocumentOptions{Sentences: 50})
	withLiteral := spanjoin.MustCompile(".*x{Belgium}.*") // absent from doc
	noLiteral := spanjoin.MustCompile(".*x{[A-Z][a-z]+}.*")
	b.Run("prefilter-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ms, err := withLiteral.Eval(doc)
			if err != nil || len(ms) != 0 {
				b.Fatal(len(ms), err)
			}
		}
	})
	b.Run("no-literal-full-eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := noLiteral.Eval(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCorpusEval: the corpus engine end to end — sharded fan-out with
// per-worker enumerator reuse and the compiled-query cache (every
// iteration after the first is a cache hit), vs the EvalAll batch (the
// same shard executor over a one-shard-per-document store, no cache) over
// the same documents.
func BenchmarkCorpusEval(b *testing.B) {
	r := workload.Rand(77)
	docs := make([]string, 256)
	for i := range docs {
		docs[i] = workload.Document(r, workload.DocumentOptions{Sentences: 3, EmailRate: 0.5})
	}
	const pattern = `mail{[a-z]+@[a-z]+\.[a-z]+}`
	ctx := context.Background()
	for _, shards := range []int{1, 4, 16} {
		c := spanjoin.NewCorpus(spanjoin.WithShards(shards))
		c.AddAll(docs...)
		b.Run(fmt.Sprintf("corpus/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ms, err := c.Eval(ctx, spanjoin.Search(pattern))
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, ok := ms.Next(); !ok {
						break
					}
				}
				if err := ms.Err(); err != nil {
					b.Fatal(err)
				}
				// spanlint/closecheck: release each iteration's stream.
				ms.Close()
			}
		})
	}
	sp := spanjoin.MustCompileSearch(pattern)
	b.Run("flat-evalall", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sp.EvalAll(ctx, docs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEN_RankedCount: the EN experiment's hot paths — counting by
// ranked DP vs draining the enumeration, and deep pagination by DAG
// descent — on ~n²/2-tuple result sets.
func BenchmarkEN_RankedCount(b *testing.B) {
	sp := spanjoin.MustCompile(".*x{a+}.*")
	doc := strings.Repeat("a", 512) // 131,328 matches
	b.Run("dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := sp.Ranked(doc)
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := r.Count().Uint64(); !ok {
				b.Fatal("overflow on a small set")
			}
		}
	})
	b.Run("drain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ms, err := sp.Iterate(context.Background(), doc)
			if err != nil {
				b.Fatal(err)
			}
			for {
				if _, ok := ms.Next(); !ok {
					break
				}
			}
			// spanlint/closecheck: a failure here must not read as exhaustion.
			if err := ms.Err(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("page-deep", func(b *testing.B) {
		r, err := sp.Ranked(doc)
		if err != nil {
			b.Fatal(err)
		}
		total, _ := r.Count().Uint64()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(r.Page(total-10, 10)) != 10 {
				b.Fatal("short page")
			}
		}
	})
	b.Run("sample", func(b *testing.B) {
		r, err := sp.Ranked(doc)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r.Sample(rng, 1) == nil {
				b.Fatal("sample failed")
			}
		}
	})
}

// BenchmarkEN_CorpusCount: corpus-wide counting through the shard workers
// vs streaming every match.
func BenchmarkEN_CorpusCount(b *testing.B) {
	c := spanjoin.NewCorpus(spanjoin.WithShards(4))
	r := workload.Rand(11)
	for i := 0; i < 200; i++ {
		c.Add(workload.RandomString(r, 128, 2))
	}
	const pattern = ".*x{a+}.*"
	b.Run("count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Count(context.Background(), spanjoin.Anchored(pattern)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("drain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ms, err := c.Eval(context.Background(), spanjoin.Anchored(pattern))
			if err != nil {
				b.Fatal(err)
			}
			for {
				if _, ok := ms.Next(); !ok {
					break
				}
			}
			if err := ms.Err(); err != nil {
				b.Fatal(err)
			}
			// spanlint/closecheck: release each iteration's stream.
			ms.Close()
		}
	})
}

// BenchmarkFirstTimeQuery is the cache-miss lookup: a never-seen
// pattern's Count plus its first Page, both on a Search target, over an
// indexed corpus of 3,000 address documents. The skip index leaves one
// or two candidate documents per pattern, so compilation, the plan and
// the candidates' count and window build are the whole cost. Patterns
// cycle through the 3,000 documents' zip codes, far more than the cache
// holds; the zips are drawn at random, so 479 of the 3,000 patterns
// repeat an earlier one, and a repeat after more than probation's 16
// other patterns compiles again into the protected segment. B/pattern is the
// heap the patterns leave reachable, after two collections, per pattern
// run: what the cache keeps of them.
func BenchmarkFirstTimeQuery(b *testing.B) {
	streets := []string{"Elm Street", "Oak Avenue", "Mill Road", "Church Lane", "Station Road", "High Street"}
	cities := []string{"Ashford", "Bexley", "Carlton", "Dover", "Exeter", "Fulham"}
	r := rand.New(rand.NewSource(3000))
	docs := make([]string, 3000)
	zips := make([]int, len(docs))
	for i := range docs {
		zips[i] = 1000 + r.Intn(9000)
		docs[i] = fmt.Sprintf("Parcel %d leaves for %d %s, %d %s. Call the depot before noon if nobody is home.",
			i, 1+r.Intn(999), streets[r.Intn(len(streets))], zips[i], cities[r.Intn(len(cities))])
	}
	c := spanjoin.NewCorpus(spanjoin.WithShards(2), spanjoin.WithIndex())
	c.AddAll(docs...)
	ctx := context.Background()
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pattern := fmt.Sprintf("z{%d} c{[A-Z][a-z]+}", zips[i%len(zips)])
		n, err := c.Count(ctx, spanjoin.Search(pattern))
		if err != nil {
			b.Fatal(err)
		}
		pg, err := c.Page(ctx, spanjoin.Search(pattern), 0, 10)
		if err != nil {
			b.Fatal(err)
		}
		if u, _ := n.Uint64(); u == 0 || len(pg.Matches) == 0 {
			b.Fatalf("%s: count %v, %d page matches; the pattern's own document must match", pattern, n, len(pg.Matches))
		}
	}
	b.StopTimer()
	runtime.GC()
	runtime.GC() // the second cycle clears the pools' victim caches
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(b.N), "B/pattern")
	runtime.KeepAlive(c)
}

// BenchmarkQueryEvaluate is one Query.Evaluate of a two-atom join on a
// 26-byte document under the automata plan: the query joins its atoms and
// builds its plan once, so an op builds the document's graph and drains
// it.
func BenchmarkQueryEvaluate(b *testing.B) {
	q := spanjoin.NewQuery().
		Atom(`.*x{ERROR} op=.*`).
		Atom(`.*x{[A-Z]+} op=y{[a-z]+} .*`).
		MustBuild()
	const doc = "ts=1 ERROR op=write id=ab "
	b.ReportAllocs()
	for b.Loop() {
		ms, err := q.Evaluate(doc, spanjoin.WithStrategy(spanjoin.StrategyAutomata))
		if err != nil || len(ms) != 1 {
			b.Fatalf("%d matches, %v; want the one ERROR/write tuple", len(ms), err)
		}
	}
}

// BenchmarkUnionEvaluate is one UnionQuery.Evaluate of BenchmarkQueryEvaluate's
// query and its WARN twin on the same document under the automata plan: the
// union compiles into one spanner once, so an op builds the document's
// graph and drains it, as a Query's does.
func BenchmarkUnionEvaluate(b *testing.B) {
	second := `.*x{[A-Z]+} op=y{[a-z]+} .*`
	u, err := spanjoin.NewUnion(
		spanjoin.NewQuery().Atom(`.*x{ERROR} op=.*`).Atom(second).MustBuild(),
		spanjoin.NewQuery().Atom(`.*x{WARN} op=.*`).Atom(second).MustBuild(),
	)
	if err != nil {
		b.Fatal(err)
	}
	const doc = "ts=1 ERROR op=write id=ab "
	b.ReportAllocs()
	for b.Loop() {
		ms, err := u.Evaluate(doc, spanjoin.WithStrategy(spanjoin.StrategyAutomata))
		if err != nil || len(ms) != 1 {
			b.Fatalf("%d matches, %v; want the one ERROR/write tuple", len(ms), err)
		}
	}
}
