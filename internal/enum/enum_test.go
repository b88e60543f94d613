package enum_test

import (
	"math/rand"
	"testing"

	"spanjoin/internal/alphabet"
	"spanjoin/internal/enum"
	"spanjoin/internal/oracle"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
)

// afun builds A_fun of Examples 2.6/4.1 with states 0,1,2 (= q0,q1,qf).
func afun() *vsa.VSA {
	a := &vsa.VSA{Vars: span.NewVarList("x"), Adj: make([][]vsa.Tr, 3), Init: 0, Final: 2}
	a.AddChar(0, alphabet.Single('a'), 0)
	a.AddOpen(0, 0, 1)
	a.AddChar(1, alphabet.Single('a'), 1)
	a.AddClose(1, 0, 2)
	a.AddChar(2, alphabet.Single('a'), 2)
	return a
}

// TestExample42Table reproduces the table of Example 4.2: [[A_fun]](aa) with
// the configuration sequence of every tuple, in the radix order the
// algorithm emits (w < o < c).
func TestExample42Table(t *testing.T) {
	e, err := enum.Prepare(afun(), "aa")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		span span.Span
		cfgs string // ~c1(x) ~c2(x) ~c3(x)
	}{
		{span.Span{Start: 3, End: 3}, "wwc"},
		{span.Span{Start: 2, End: 3}, "woc"},
		{span.Span{Start: 2, End: 2}, "wcc"},
		{span.Span{Start: 1, End: 3}, "ooc"},
		{span.Span{Start: 1, End: 2}, "occ"},
		{span.Span{Start: 1, End: 1}, "ccc"},
	}
	for i := 0; ; i++ {
		tu, ok := e.Next()
		if !ok {
			if i != len(want) {
				t.Fatalf("enumerated %d tuples, want %d", i, len(want))
			}
			break
		}
		if i >= len(want) {
			t.Fatalf("too many tuples: extra %v", tu)
		}
		if tu[0] != want[i].span {
			t.Errorf("tuple %d = %v, want %v", i, tu[0], want[i].span)
		}
	}
}

// TestFigure1_AG reproduces Figure 1: the structure of the NFA A_G built
// from A_fun and s = aa — three levels of sizes 3, 3, 1 whose nodes carry
// letters w, o, c, with exactly the edges drawn in the figure.
func TestFigure1_AG(t *testing.T) {
	e, err := enum.Prepare(afun(), "aa")
	if err != nil {
		t.Fatal(err)
	}
	levels := e.Levels()
	if len(levels) != 3 {
		t.Fatalf("got %d levels, want 3", len(levels))
	}
	wantSizes := []int{3, 3, 1}
	for i, lvl := range levels {
		if len(lvl) != wantSizes[i] {
			t.Fatalf("level %d has %d nodes, want %d", i, len(lvl), wantSizes[i])
		}
	}
	// Letters: states 0,1,2 carry w,o,c. Letter ids are radix-ordered, so
	// w=0 < o=1 < c=2.
	cfgName := func(l int32) string { return e.LetterConfig(l).String() }
	wantLetter := map[int32]string{0: "(w)", 1: "(o)", 2: "(c)"}
	for i, lvl := range levels {
		for _, nd := range lvl {
			if cfgName(nd.Letter) != wantLetter[nd.State] {
				t.Errorf("level %d state %d has letter %s, want %s",
					i, nd.State, cfgName(nd.Letter), wantLetter[nd.State])
			}
		}
	}
	// Edges of Figure 1 (from (i, state) to (i+1, state)):
	wantEdges := map[[3]int32]bool{
		// level 0 -> 1: q0 -> {q0,q1,qf}, q1 -> {q1,qf}, qf -> {qf}
		{0, 0, 0}: true, {0, 0, 1}: true, {0, 0, 2}: true,
		{0, 1, 1}: true, {0, 1, 2}: true,
		{0, 2, 2}: true,
		// level 1 -> 2: everything must reach (2, qf)
		{1, 0, 2}: true, {1, 1, 2}: true, {1, 2, 2}: true,
	}
	gotEdges := map[[3]int32]bool{}
	for i := 0; i+1 < len(levels); i++ {
		for _, nd := range levels[i] {
			for k := range nd.TargetLetters {
				for _, tgt := range nd.TargetsByLetter[k] {
					gotEdges[[3]int32{int32(i), nd.State, levels[i+1][tgt].State}] = true
				}
			}
		}
	}
	if len(gotEdges) != len(wantEdges) {
		t.Errorf("got %d edges, want %d: %v", len(gotEdges), len(wantEdges), gotEdges)
	}
	for e := range wantEdges {
		if !gotEdges[e] {
			t.Errorf("missing edge (%d,q%d) -> (%d,q%d)", e[0], e[1], e[0]+1, e[2])
		}
	}
}

// TestExampleA1Table reproduces the table of Example A.1: all ten tuples of
// [[a* x{a*} a*]](aaa).
func TestExampleA1Table(t *testing.T) {
	a := rgx.MustCompilePattern("a*x{a*}a*")
	_, tuples, err := enum.Eval(a, "aaa")
	if err != nil {
		t.Fatal(err)
	}
	want := map[span.Span]bool{
		{Start: 1, End: 1}: true, {Start: 1, End: 2}: true, {Start: 1, End: 3}: true, {Start: 1, End: 4}: true,
		{Start: 2, End: 2}: true, {Start: 2, End: 3}: true, {Start: 2, End: 4}: true,
		{Start: 3, End: 3}: true, {Start: 3, End: 4}: true,
		{Start: 4, End: 4}: true,
	}
	if len(tuples) != len(want) {
		t.Fatalf("got %d tuples, want %d", len(tuples), len(want))
	}
	for _, tu := range tuples {
		if !want[tu[0]] {
			t.Errorf("unexpected tuple %v", tu[0])
		}
	}
}

// exampleA2 builds the automaton of Example A.2: exponentially many
// accepting runs, but a single tuple.
func exampleA2() *vsa.VSA {
	a := &vsa.VSA{Vars: span.NewVarList("x"), Adj: make([][]vsa.Tr, 4), Init: 0, Final: 3}
	// q0 -x⊢→ q1, q0 -x⊢→ q2
	a.AddOpen(0, 0, 1)
	a.AddOpen(0, 0, 2)
	// q1,q2 -a→ {q1,q2}
	for _, p := range []int32{1, 2} {
		a.AddChar(p, alphabet.Single('a'), 1)
		a.AddChar(p, alphabet.Single('a'), 2)
	}
	// q1 -⊣x→ qf, q2 -⊣x→ qf
	a.AddClose(1, 0, 3)
	a.AddClose(2, 0, 3)
	return a
}

// TestExampleA2Dedup: 2^|s| accepting runs collapse to one tuple; the
// enumeration must emit it exactly once.
func TestExampleA2Dedup(t *testing.T) {
	a := exampleA2()
	if !a.IsFunctional() {
		t.Fatal("Example A.2 automaton should be functional")
	}
	for _, s := range []string{"a", "aa", "aaa", "aaaa"} {
		e, err := enum.Prepare(a, s)
		if err != nil {
			t.Fatal(err)
		}
		// Count the accepting paths in G: they must be 2^|s|.
		paths := countPaths(e)
		wantPaths := 1 << len(s)
		if paths != wantPaths {
			t.Errorf("|s|=%d: %d paths in G, want %d", len(s), paths, wantPaths)
		}
		tuples := e.All()
		if len(tuples) != 1 {
			t.Fatalf("|s|=%d: got %d tuples, want 1", len(s), len(tuples))
		}
		if tuples[0][0] != (span.Span{Start: 1, End: len(s) + 1}) {
			t.Errorf("tuple = %v, want [1,%d⟩", tuples[0][0], len(s)+1)
		}
	}
}

func countPaths(e *enum.Enumerator) int {
	levels := e.Levels()
	if len(levels) == 0 {
		return 0
	}
	counts := make([]int, len(levels[len(levels)-1]))
	for i := range counts {
		counts[i] = 1
	}
	for i := len(levels) - 2; i >= 0; i-- {
		next := make([]int, len(levels[i]))
		for k, nd := range levels[i] {
			for j := range nd.TargetLetters {
				for _, tgt := range nd.TargetsByLetter[j] {
					next[k] += counts[tgt]
				}
			}
		}
		counts = next
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

func TestEmptyStringEvaluation(t *testing.T) {
	cases := []struct {
		pattern string
		want    int
	}{
		{"x{}", 1},
		{"x{}y{}", 1},
		{"a*", 1}, // Boolean: single empty tuple
		{"a+", 0},
		{"x{a}", 0},
	}
	for _, tc := range cases {
		a := rgx.MustCompilePattern(tc.pattern)
		_, tuples, err := enum.Eval(a, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(tuples) != tc.want {
			t.Errorf("[[%s]](ε): %d tuples, want %d", tc.pattern, len(tuples), tc.want)
		}
	}
}

func TestBooleanSpanner(t *testing.T) {
	a := rgx.MustCompilePattern("(a|b)*ab(a|b)*") // contains "ab"
	for s, want := range map[string]int{"ab": 1, "aab": 1, "ba": 0, "": 0, "abab": 1} {
		_, tuples, err := enum.Eval(a, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(tuples) != want {
			t.Errorf("boolean [[α]](%q) = %d tuples, want %d", s, len(tuples), want)
		}
		if want == 1 && len(tuples) == 1 && len(tuples[0]) != 0 {
			t.Errorf("boolean tuple should be empty, got %v", tuples[0])
		}
	}
}

func TestRadixOrderAndNoDuplicates(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	patterns := []string{
		".*x{a*}.*y{b*}.*",
		"x{.*}y{.*}",
		".*x{.}.*",
		"(a|b)*x{a+}(a|b)*",
	}
	for _, p := range patterns {
		a := rgx.MustCompilePattern(p)
		for trial := 0; trial < 5; trial++ {
			n := r.Intn(5) + 1
			b := make([]byte, n)
			for i := range b {
				b[i] = byte('a' + r.Intn(2))
			}
			s := string(b)
			e, err := enum.Prepare(a, s)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			count := 0
			for {
				tu, ok := e.Next()
				if !ok {
					break
				}
				count++
				if seen[tu.Key()] {
					t.Fatalf("[[%s]](%q): duplicate tuple %v", p, s, tu)
				}
				seen[tu.Key()] = true
			}
			// Cross-check the count with the oracle.
			f := rgx.MustParse(p)
			want := oracle.EvalFormula(f, s)
			if count != len(want) {
				t.Errorf("[[%s]](%q): %d tuples, oracle says %d", p, s, count, len(want))
			}
		}
	}
}

func TestNextAfterExhaustion(t *testing.T) {
	a := rgx.MustCompilePattern("x{a}")
	e, err := enum.Prepare(a, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Next(); !ok {
		t.Fatal("expected one tuple")
	}
	for i := 0; i < 3; i++ {
		if _, ok := e.Next(); ok {
			t.Fatal("Next after exhaustion must keep returning !ok")
		}
	}
}

func TestEmptyLanguageEnumerator(t *testing.T) {
	e, err := enum.Prepare(vsa.New(nil), "abc")
	if err != nil {
		t.Fatal(err)
	}
	if !e.Empty() {
		t.Error("Empty() should be true")
	}
	if _, ok := e.Next(); ok {
		t.Error("no tuples expected")
	}
}

func TestNonFunctionalRejected(t *testing.T) {
	a := &vsa.VSA{Vars: span.NewVarList("x"), Adj: make([][]vsa.Tr, 1), Init: 0, Final: 0}
	a.AddOpen(0, 0, 0)
	a.AddChar(0, alphabet.Single('a'), 0)
	a.AddClose(0, 0, 0)
	if _, err := enum.Prepare(a, "a"); err == nil {
		t.Error("non-functional automaton must be rejected")
	}
}

func TestGraphSizeBound(t *testing.T) {
	// |G| is O(n·N) nodes and O(n²·N) edges (Thm 3.3 preprocessing bound).
	a := rgx.MustCompilePattern("(a|b)*x{(a|b)+}(a|b)*")
	n := a.Trim().NumStates()
	for _, N := range []int{4, 8, 16} {
		s := ""
		for i := 0; i < N; i++ {
			s += "ab"[i%2 : i%2+1]
		}
		e, err := enum.Prepare(a, s)
		if err != nil {
			t.Fatal(err)
		}
		nodes, edges := 0, 0
		for _, lvl := range e.Levels() {
			nodes += len(lvl)
			for _, nd := range lvl {
				for _, ts := range nd.TargetsByLetter {
					edges += len(ts)
				}
			}
		}
		if nodes > n*(N+1) {
			t.Errorf("N=%d: %d nodes > n(N+1) = %d", N, nodes, n*(N+1))
		}
		if edges > n*n*N {
			t.Errorf("N=%d: %d edges > n²N = %d", N, edges, n*n*N)
		}
	}
}

func TestCountAndAll(t *testing.T) {
	a := rgx.MustCompilePattern("a*x{a*}a*")
	e1, _ := enum.Prepare(a, "aaaa")
	e2, _ := enum.Prepare(a, "aaaa")
	want := e2.All()
	// Rank().Count() is the ranked DP, not a drain: it must not move the
	// cursor.
	count := func(e *enum.Enumerator) int {
		n, _ := e.Rank().Count().Uint64()
		return int(n)
	}
	if got := count(e1); got != len(want) {
		t.Errorf("Count %d != |All| %d", got, len(want))
	}
	if got := count(e1); got != len(want) {
		t.Errorf("second Count %d != |All| %d (Count must be repeatable)", got, len(want))
	}
	all := e1.All()
	if len(all) != len(want) {
		t.Fatalf("All after Count yields %d tuples, want %d — Count drained the iterator", len(all), len(want))
	}
	for i := range all {
		if all[i].Compare(want[i]) != 0 {
			t.Fatalf("tuple %d after Count: %v, want %v", i, all[i], want[i])
		}
	}
	// Mid-enumeration Count still reports the full result size and leaves
	// the remaining stream intact.
	e3, _ := enum.Prepare(a, "aaaa")
	first, ok := e3.Next()
	if !ok || first.Compare(want[0]) != 0 {
		t.Fatal("first tuple diverged")
	}
	if got := count(e3); got != len(want) {
		t.Errorf("mid-stream Count %d != %d", got, len(want))
	}
	rest := e3.All()
	if len(rest) != len(want)-1 {
		t.Fatalf("mid-stream Count disturbed the cursor: %d tuples left, want %d", len(rest), len(want)-1)
	}
}
