package core_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"spanjoin/internal/core"
	"spanjoin/internal/enum"
	"spanjoin/internal/oracle"
	"spanjoin/internal/span"
)

// queryAtoms are FuzzQueryPlans' atom patterns: small functional regex
// formulas over {a, b} binding one or two of x, y and z, so random picks
// share variables (joins), leave some unshared (products) and sometimes
// bind a variable pair an equality can compare.
var queryAtoms = []string{
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

// specReader hands out the fuzz input's shape bytes, then zeros.
type specReader []byte

func (r *specReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// decodeCQ reads one CQ: 1–3 atoms picked from queryAtoms, an optional
// projection onto a subset of the atoms' variables (possibly none: a
// Boolean query), and 0–1 string equalities between distinct variables.
func decodeCQ(t *testing.T, r *specReader) *core.CQ {
	q := &core.CQ{}
	for i, k := 0, 1+r.next()%3; i < k; i++ {
		q.Atoms = append(q.Atoms, atom(t, fmt.Sprintf("a%d", i), queryAtoms[r.next()%len(queryAtoms)]))
	}
	all := q.AllVars()
	if pm := r.next(); pm%2 == 1 {
		q.Projection = span.VarList{} // non-nil when empty: Boolean
		for i, v := range all {
			if pm>>(i+1)&1 == 1 {
				q.Projection = append(q.Projection, v)
			}
		}
	}
	if e := r.next(); e%2 == 1 && len(all) >= 2 {
		i := (e >> 1) % len(all)
		j := (i + 1 + (e>>4)%(len(all)-1)) % len(all)
		q.Equalities = [][2]string{{all[i], all[j]}}
	}
	return q
}

// decodeUCQ reads 1–2 disjuncts. A second disjunct is projected onto the
// first one's output variables when it binds them all (Boolean after a
// Boolean first disjunct), so most two-way unions are valid; the rest
// fail Validate and only their disjuncts are checked.
func decodeUCQ(t *testing.T, r *specReader) *core.UCQ {
	u := &core.UCQ{Disjuncts: []*core.CQ{decodeCQ(t, r)}}
	if r.next()%2 == 1 {
		q := decodeCQ(t, r)
		if out := u.Disjuncts[0].OutVars(); q.AllVars().Intersect(out).Equal(out) {
			q.Projection = append(span.VarList{}, out...)
		}
		u.Disjuncts = append(u.Disjuncts, q)
	}
	return u
}

// queryDoc maps raw fuzz bytes onto a document of at most 5 bytes over
// {a, b, c}, keeping those three bytes: 'c' matches only the atoms' '.'.
func queryDoc(raw string) string {
	if len(raw) > 5 {
		raw = raw[:5]
	}
	b := []byte(raw)
	for i := range b {
		b[i] = "abc"[(b[i]-'a')%3]
	}
	return string(b)
}

// tupleKey renders a tuple with its variable names, so results compare
// across plans whatever their variable order.
func tupleKey(vars span.VarList, t span.Tuple) string {
	var b strings.Builder
	for i, v := range vars {
		fmt.Fprintf(&b, "%s=%v ", v, t[i])
	}
	return b.String()
}

// resultKeys is the set of the tuples' keys.
func resultKeys(vars span.VarList, ts []span.Tuple) map[string]bool {
	out := make(map[string]bool, len(ts))
	for _, t := range ts {
		out[tupleKey(vars, t)] = true
	}
	return out
}

// binding is one brute-force join row: variable → span.
type binding map[string]span.Span

// bruteCQ evaluates q on doc from the definitions alone: each atom's
// relation by the ref-word oracle, a nested-loop natural join, the
// equality filter on substrings, and the projection onto the output
// variables. It shares no code with either plan.
func bruteCQ(q *core.CQ, doc string) map[string]bool {
	rows := []binding{{}}
	for _, a := range q.Atoms {
		vars := a.Vars()
		var joined []binding
		for _, row := range rows {
		tuples:
			for _, tu := range oracle.EvalVSA(a.Auto, doc) {
				next := make(binding, len(row)+len(vars))
				for v, sp := range row {
					next[v] = sp
				}
				for i, v := range vars {
					if sp, ok := next[v]; ok && sp != tu[i] {
						continue tuples
					}
					next[v] = tu[i]
				}
				joined = append(joined, next)
			}
		}
		rows = joined
	}
	out := q.OutVars()
	keys := make(map[string]bool)
	for _, row := range rows {
		equal := true
		for _, eq := range q.Equalities {
			x, y := row[eq[0]], row[eq[1]]
			equal = equal && x.Substr(doc) == y.Substr(doc)
		}
		if !equal {
			continue
		}
		t := make(span.Tuple, len(out))
		for i, v := range out {
			t[i] = row[v]
		}
		keys[tupleKey(out, t)] = true
	}
	return keys
}

func sameKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

var queryStrategies = []core.Strategy{core.Canonical, core.Automata, core.Auto}

// FuzzQueryPlans is the differential harness for the query layer: random
// regex CQs and UCQs (1–3 atoms, a projection, 0–1 string equalities, 1–2
// disjuncts) on documents of at most 5 bytes. The canonical relational
// plan (Thm 3.5, Cor 5.3), compilation to automata (Thm 3.11, Cor 5.5)
// and the Auto planner's choice between them (Prop 3.6) must all equal a
// brute-force join of the atoms' oracle relations; for equality-free
// UCQs the single automaton of UCQ.Compile (Lemmas 3.8–3.10) must
// enumerate what UCQ.Enumerate does.
func FuzzQueryPlans(f *testing.F) {
	f.Add([]byte{0}, "aab")
	f.Add([]byte{1, 3, 4, 1, 0}, "abab")
	f.Add([]byte{1, 0, 10, 0, 3}, "abba")
	f.Add([]byte{0, 6, 0, 0, 1, 0, 7, 1, 0}, "aabb")
	f.Add([]byte{2, 0, 4, 8, 15, 0, 1, 1, 11, 0, 0}, "abc")
	f.Add([]byte{0, 2, 1, 0, 1, 1, 0, 0, 0}, "")
	f.Add([]byte{0, 3, 3, 0, 1, 0, 7, 3, 0}, "aab")
	f.Fuzz(func(t *testing.T, spec []byte, raw string) {
		r := specReader(spec)
		u := decodeUCQ(t, &r)
		doc := queryDoc(raw)
		for i, q := range u.Disjuncts {
			want := bruteCQ(q, doc)
			for _, st := range queryStrategies {
				got, err := q.Eval(doc, core.Options{Strategy: st})
				if err != nil {
					t.Fatalf("disjunct %d on %q, %v: %v", i, doc, st, err)
				}
				if keys := resultKeys(got.Vars, got.Tuples); !sameKeys(keys, want) {
					t.Fatalf("disjunct %d on %q, %v plan:\n got %v\nwant %v", i, doc, st, sortedKeys(keys), sortedKeys(want))
				}
			}
		}
		if u.Validate() != nil {
			return
		}
		want := make(map[string]bool)
		for _, q := range u.Disjuncts {
			for k := range bruteCQ(q, doc) {
				want[k] = true
			}
		}
		for _, st := range queryStrategies {
			got, err := u.Eval(doc, core.Options{Strategy: st})
			if err != nil {
				t.Fatalf("union on %q, %v: %v", doc, st, err)
			}
			if keys := resultKeys(got.Vars, got.Tuples); !sameKeys(keys, want) {
				t.Fatalf("union on %q, %v plan:\n got %v\nwant %v", doc, st, sortedKeys(keys), sortedKeys(want))
			}
		}
		if u.MaxEqualities() > 0 {
			return
		}
		auto, err := u.Compile()
		if err != nil {
			t.Fatalf("equality-free union must compile: %v", err)
		}
		vars, tuples, err := enum.Eval(auto, doc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := u.Eval(doc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if keys, ref := resultKeys(vars, tuples), resultKeys(got.Vars, got.Tuples); !sameKeys(keys, ref) {
			t.Fatalf("union on %q: compiled automaton %v, Enumerate %v", doc, sortedKeys(keys), sortedKeys(ref))
		}
	})
}
