package spanjoin_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"spanjoin"
)

// queryFuzzAtoms are FuzzQueryPlans' atom patterns (the internal/core
// leg's list): small functional regex formulas over {a, b} binding one or
// two of x, y and z.
var queryFuzzAtoms = []string{
	`.*x{a+}.*`,
	`.*x{b}.*`,
	`x{.*}`,
	`.*x{a}y{.}.*`,
	`.*y{b+}.*`,
	`.*y{.}.*`,
	`x{a*}y{b*}.*`,
	`.*x{.}.*y{.}.*`,
	`.*z{ab}.*`,
	`.*z{.+}`,
	`y{.*}z{.*}`,
	`.*x{a|b}z{b?}.*`,
}

// fuzzQuery reads a CQ from the shape bytes like the internal/core leg's
// decodeCQ: 1–3 atoms, an optional projection onto a subset of their
// variables, and 0–1 string equalities between distinct variables. It
// returns whether the query has an equality, and a build that projects
// onto proj instead of the decoded projection when proj is non-nil.
func fuzzQuery(spec *[]byte) (eq bool, build func(t *testing.T, proj []string) *spanjoin.Query) {
	next := func() int {
		if len(*spec) == 0 {
			return 0
		}
		b := (*spec)[0]
		*spec = (*spec)[1:]
		return int(b)
	}
	var atoms, all []string
	seen := make(map[string]bool)
	for i, k := 0, 1+next()%3; i < k; i++ {
		p := queryFuzzAtoms[next()%len(queryFuzzAtoms)]
		atoms = append(atoms, p)
		for _, v := range spanjoin.MustCompile(p).Vars() {
			if !seen[v] {
				seen[v] = true
				all = append(all, v)
			}
		}
	}
	sort.Strings(all)
	var own []string
	if pm := next(); pm%2 == 1 {
		own = []string{}
		for i, v := range all {
			if pm>>(i+1)&1 == 1 {
				own = append(own, v)
			}
		}
	}
	var equal []string
	if e := next(); e%2 == 1 && len(all) >= 2 {
		i := (e >> 1) % len(all)
		j := (i + 1 + (e>>4)%(len(all)-1)) % len(all)
		equal = []string{all[i], all[j]}
	}
	return equal != nil, func(t *testing.T, proj []string) *spanjoin.Query {
		t.Helper()
		b := spanjoin.NewQuery()
		for i, p := range atoms {
			b.AtomNamed(fmt.Sprintf("a%d", i), p)
		}
		if proj == nil {
			proj = own
		}
		if proj != nil {
			b.Project(proj...)
		}
		if equal != nil {
			b.Equal(equal[0], equal[1])
		}
		q, err := b.Build()
		if err != nil {
			t.Fatalf("fuzz query must build: %v", err)
		}
		return q
	}
}

// queryFuzzDocs splits raw fuzz bytes on '|' into 3–4 documents of at
// most 5 bytes over {a, b, c}.
func queryFuzzDocs(raw string) []string {
	parts := strings.SplitN(raw, "|", 4)
	for len(parts) < 3 {
		parts = append(parts, "")
	}
	for i, p := range parts {
		if len(p) > 5 {
			p = p[:5]
		}
		b := []byte(p)
		for k := range b {
			b[k] = "abc"[(b[k]-'a')%3]
		}
		parts[i] = string(b)
	}
	return parts
}

// FuzzQueryPlans' corpus leg: a random CQ, and the union of it and a
// second one, both projected onto their common output variables (none: a
// Boolean union), over 3–4 small documents. Per document, the default plan must equal the
// canonical plan, which works on materialized relations and shares no
// automaton with it beyond the atoms; a document failing RequiredLiterals
// has no result. Then, with and without the skip index, under the default
// planner and forced onto the canonical plan, Eval and Count of the
// OfQuery or OfUnion target must equal the per-document Evaluate. A
// plan-backed target (no equalities, not canonical) must page out every
// per-document result in ascending DocID order and draw only members of
// the result set; any other query target must fail to page or sample.
func FuzzQueryPlans(f *testing.F) {
	f.Add([]byte{0}, "aab|ab|b")
	f.Add([]byte{1, 3, 4, 1, 0}, "abab|ba|aab|")
	f.Add([]byte{1, 0, 10, 0, 3}, "abba|bab|a")
	f.Add([]byte{2, 0, 4, 8, 15, 0}, "abc|cab|aabb|bb")
	f.Add([]byte{1, 8, 9, 0, 0}, "ab|aab|bbb")
	f.Add([]byte{0, 6, 0, 0, 0, 7, 0, 0}, "aabb|ab|bab")
	f.Add([]byte{1, 0, 4, 0, 0, 0, 1, 0, 0}, "aab|bba|abab")
	f.Fuzz(func(t *testing.T, spec []byte, raw string) {
		docs := queryFuzzDocs(raw)
		eq1, build1 := fuzzQuery(&spec)
		q := build1(t, nil)
		checkQueryTarget(t, q, spanjoin.OfQuery(q), eq1, docs)

		// Two queries sharing no variable make a Boolean union.
		eq2, build2 := fuzzQuery(&spec)
		common := []string{}
		for _, v := range build2(t, nil).Vars() {
			if slices.Contains(q.Vars(), v) {
				common = append(common, v)
			}
		}
		u, err := spanjoin.NewUnion(build1(t, common), build2(t, common))
		if err != nil {
			t.Fatalf("union of two queries projected onto %v: %v", common, err)
		}
		checkQueryTarget(t, u, spanjoin.OfUnion(u), eq1 || eq2, docs)
	})
}

// evaluator is what checkQueryTarget needs of a Query or UnionQuery.
type evaluator interface {
	Evaluate(doc string, opts ...spanjoin.Option) ([]spanjoin.Match, error)
	RequiredLiterals() []string
}

// checkQueryTarget is FuzzQueryPlans' check of one query and its target.
func checkQueryTarget(t *testing.T, q evaluator, target spanjoin.Target, eq bool, docs []string) {
	t.Helper()
	canonical := []spanjoin.Option{spanjoin.WithStrategy(spanjoin.StrategyCanonical)}
	want := make([]map[string]int, len(docs))
	total := 0
	for i, doc := range docs {
		var byPlan [2]map[string]int
		for k, opts := range [][]spanjoin.Option{nil, canonical} {
			ms, err := q.Evaluate(doc, opts...)
			if err != nil {
				t.Fatal(err)
			}
			byPlan[k] = make(map[string]int)
			for _, m := range ms {
				byPlan[k][m.String()]++
			}
		}
		if !sameCounts(byPlan[0], byPlan[1]) {
			t.Fatalf("doc %q: default plan %v, canonical plan %v", doc, byPlan[0], byPlan[1])
		}
		want[i] = byPlan[0]
		for _, n := range want[i] {
			total += n
		}
		for _, l := range q.RequiredLiterals() {
			if !strings.Contains(doc, l) && len(want[i]) > 0 {
				t.Fatalf("doc %q lacks required literal %q but has %d results", doc, l, len(want[i]))
			}
		}
	}
	ctx := context.Background()
	for _, opts := range [][]spanjoin.Option{nil, canonical} {
		planBacked := !eq && opts == nil
		for _, copts := range [][]spanjoin.CorpusOption{nil, {spanjoin.WithIndex()}} {
			c := spanjoin.NewCorpus(append([]spanjoin.CorpusOption{spanjoin.WithShards(2), spanjoin.WithWorkers(2)}, copts...)...)
			ids := c.AddAll(docs...)
			got := make(map[spanjoin.DocID]map[string]int)
			for id, ms := range evalAll(t, c, target, opts...) {
				got[id] = make(map[string]int)
				for _, m := range ms {
					got[id][m.String()]++
				}
			}
			for i, doc := range docs {
				if !sameCounts(got[ids[i]], want[i]) {
					t.Fatalf("doc %q: corpus %v, Evaluate %v", doc, got[ids[i]], want[i])
				}
			}
			n, err := c.Count(ctx, target, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if u, ok := n.Uint64(); !ok || u != uint64(total) {
				t.Fatalf("Count = %v, per-document results total %d", n, total)
			}

			pg, pageErr := c.Page(ctx, target, 0, total, opts...)
			draws, sampleErr := c.Sample(ctx, target, rand.New(rand.NewSource(int64(total))), 4, opts...)
			if !planBacked {
				if pageErr == nil || sampleErr == nil {
					t.Fatalf("per-document query target: Page err %v, Sample err %v; want errors", pageErr, sampleErr)
				}
				continue
			}
			if pageErr != nil || sampleErr != nil {
				t.Fatalf("plan-backed query target: Page err %v, Sample err %v", pageErr, sampleErr)
			}
			paged := make(map[spanjoin.DocID]map[string]int)
			for k, m := range pg.Matches {
				if k > 0 && m.Doc < pg.Matches[k-1].Doc {
					t.Fatalf("page row %d: doc %d after doc %d", k, m.Doc, pg.Matches[k-1].Doc)
				}
				if paged[m.Doc] == nil {
					paged[m.Doc] = make(map[string]int)
				}
				paged[m.Doc][m.Match.String()]++
			}
			for i, doc := range docs {
				if !sameCounts(paged[ids[i]], want[i]) {
					t.Fatalf("doc %q: page %v, Evaluate %v", doc, paged[ids[i]], want[i])
				}
			}
			if total > 0 && len(draws) != 4 {
				t.Fatalf("Sample drew %d of 4 from %d results", len(draws), total)
			}
			for _, d := range draws {
				if got[d.Doc][d.Match.String()] == 0 {
					t.Fatalf("Sample drew %v@%d, not a result", d.Match, d.Doc)
				}
			}
		}
	}
}

// sameCounts compares two multisets, nil and empty alike.
func sameCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}
