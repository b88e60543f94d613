package enum

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"weak"

	"spanjoin/internal/alloctest"
	"spanjoin/internal/oracle"
	"spanjoin/internal/ranked"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
	"spanjoin/internal/strequal"
	"spanjoin/internal/vsa"
)

// graphsEqual compares a build's layered graph with the reference's
// (refPrepare) structurally: levels (states and letters), edges
// (letter-grouped targets) and the virtual start fan-out must be
// identical, node by node.
func graphsEqual(matrix *Enumerator, ref *refEnumerator) error {
	if matrix.Empty() != ref.empty {
		return fmt.Errorf("emptiness: matrix %v, ref %v", matrix.Empty(), ref.empty)
	}
	if matrix.Empty() {
		return nil
	}
	ml, rl := matrix.Levels(), ref.levels
	if len(ml) != len(rl) {
		return fmt.Errorf("level count: matrix %d, ref %d", len(ml), len(rl))
	}
	groupsEqual := func(aL []int32, aT [][]int32, bL []int32, bT [][]int32) bool {
		if len(aL) != len(bL) {
			return false
		}
		for k := range aL {
			if aL[k] != bL[k] || len(aT[k]) != len(bT[k]) {
				return false
			}
			for j := range aT[k] {
				if aT[k][j] != bT[k][j] {
					return false
				}
			}
		}
		return true
	}
	for i := range ml {
		if len(ml[i]) != len(rl[i]) {
			return fmt.Errorf("level %d: matrix %d nodes, ref %d", i, len(ml[i]), len(rl[i]))
		}
		for k := range ml[i] {
			mn, rn := &ml[i][k], &rl[i][k]
			if mn.State != rn.State || mn.Letter != rn.Letter {
				return fmt.Errorf("level %d node %d: matrix (%d,%d), ref (%d,%d)",
					i, k, mn.State, mn.Letter, rn.State, rn.Letter)
			}
			if !groupsEqual(mn.TargetLetters, mn.TargetsByLetter, rn.TargetLetters, rn.TargetsByLetter) {
				return fmt.Errorf("level %d node %d: edge groups differ", i, k)
			}
		}
	}
	if !groupsEqual(matrix.g.startLetters, matrix.g.startByLetter, ref.startLetters, ref.startByLetter) {
		return fmt.Errorf("start fan-out differs")
	}
	return nil
}

// recycledArenas returns the graph arenas of a build of donor under a
// different pattern — other states, other letters, so every buffer holds
// stale contents — as Release and the next enumerator's first build would
// pass them on. They are handed over directly because the pool may drop
// what it is given.
func recycledArenas(t *testing.T, donor string) *graph {
	t.Helper()
	p, err := NewPlan(rgx.MustCompilePattern(".*x{.*}y{.*}.*"))
	if err != nil {
		t.Fatal(err)
	}
	e := p.Prepare(donor)
	for k := 0; k < 8; k++ {
		e.Next() // fill the cursor buffers too
	}
	g := e.g
	if g == nil {
		t.Fatal("donor build drew no arenas")
	}
	e.g = nil
	return g
}

// checkBuildVsRef builds s through the plan and through refPrepare and
// requires identical graphs and identical tuple streams. The plan's build
// runs twice: on a cold build cache, into arenas recycled from a shorter
// document's build so every buffer grows from stale contents, and on a
// cache another document warmed — s rotated, so many of its levels are
// cached for other next levels.
func checkBuildVsRef(t *testing.T, a *vsa.VSA, s string) {
	t.Helper()
	p, err := NewPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	m := p.NewEnumerator()
	m.g = recycledArenas(t, s[:len(s)/2])
	m.Reset(s)
	warmPlan, err := NewPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	warmPlan.Prepare(s[len(s)/2:] + s[:len(s)/2])
	w := warmPlan.Prepare(s)
	r, err := refPrepare(a, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphsEqual(m, r); err != nil {
		t.Fatalf("graph mismatch on %q: %v", s, err)
	}
	if err := graphsEqual(w, r); err != nil {
		t.Fatalf("graph mismatch on %q after a warming document: %v", s, err)
	}
	if !tuplesEqual(m.All(), r.all()) {
		t.Fatalf("tuple streams differ on %q", s)
	}
}

// TestMatrixBuildMatchesReferenceOnPatterns cross-validates the cached
// table build against refPrepare on compiled patterns over random
// documents, including patterns whose byte classes go beyond {a, b} and
// documents containing dead bytes.
func TestMatrixBuildMatchesReferenceOnPatterns(t *testing.T) {
	patterns := []string{
		"a*x{a*}a*",
		".*x{a+}.*y{b+}.*",
		"x{.*}y{.*}",
		"(a|b)*x{(a|b)+}(a|b)*",
		"[^0-9]*x{[0-9]+}[^0-9]*",
		".*x{a+b}.*",
	}
	alpha := "ab01z"
	r := rand.New(rand.NewSource(4242))
	for _, p := range patterns {
		a := rgx.MustCompilePattern(p)
		for trial := 0; trial < 10; trial++ {
			b := make([]byte, r.Intn(14))
			for i := range b {
				b[i] = alpha[r.Intn(len(alpha))]
			}
			checkBuildVsRef(t, a, string(b))
		}
		checkBuildVsRef(t, a, "")
	}
}

// TestMatrixBuildMatchesReferenceOnRandomAutomata widens the property to
// random functional vset-automata with ε/variable tangles.
func TestMatrixBuildMatchesReferenceOnRandomAutomata(t *testing.T) {
	r := rand.New(rand.NewSource(4243))
	vars := span.NewVarList("x", "y")
	for i := 0; i < 120; i++ {
		a := oracle.RandomFunctionalVSA(r, vars, 5, 14)
		for _, s := range []string{"", "a", "ab", "aab", "abba", "abcab"} {
			checkBuildVsRef(t, a, s)
		}
	}
}

// TestMatrixResetSharedPlan: enumerators and clones over one plan must
// agree with the reference across Reset cycles (the corpus worker shape).
func TestMatrixResetSharedPlan(t *testing.T) {
	a := rgx.MustCompilePattern(".*x{a+}.*y{b+}.*")
	p, err := NewPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	if p.ByteClasses() < 2 {
		t.Fatalf("ByteClasses = %d, want ≥ 2", p.ByteClasses())
	}
	e := p.NewEnumerator()
	c := e.Clone()
	docs := []string{"ab", "", "aabba", "zzz", "ba", strings.Repeat("ab", 20)}
	for _, doc := range docs {
		e.Reset(doc)
		c.Reset(doc)
		r, err := refPrepare(a, doc)
		if err != nil {
			t.Fatal(err)
		}
		want := r.all()
		if !tuplesEqual(e.All(), want) {
			t.Fatalf("plan enumerator differs from reference on %q", doc)
		}
		if !tuplesEqual(c.All(), want) {
			t.Fatalf("plan clone differs from reference on %q", doc)
		}
	}
}

// TestMatrixBuildDeadByteFastPath: a byte no transition accepts must empty
// the result (and the fast path must not corrupt later Resets).
func TestMatrixBuildDeadByteFastPath(t *testing.T) {
	a := rgx.MustCompilePattern("(a|b)*x{a+}(a|b)*")
	p, err := NewPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	e := p.NewEnumerator()
	e.Reset("aaQaa") // Q is dead: forward sweep exits at position 2
	if !e.Empty() {
		t.Fatal("document with a dead byte must have an empty result")
	}
	e.Reset("aa")
	r, _ := refPrepare(a, "aa")
	if !tuplesEqual(e.All(), r.all()) {
		t.Fatal("Reset after the dead-byte fast path diverges from the reference")
	}
}

// FuzzBuildVsRef is the differential fuzz harness for the graph build:
// arbitrary documents (raw fuzz bytes, so all 256 byte values and every
// byte class appear) through an arbitrary pattern of at most 48 bytes
// must produce identical layered graphs and identical tuple streams under
// the plan's cached build, cold and warm, and refPrepare. Patterns the
// compiler rejects are skipped.
func FuzzBuildVsRef(f *testing.F) {
	seeds := [][2]string{
		{"a*x{a*}a*", "aaa"},
		{"(a|b)*x{a+}(a|b)*", "abba"},
		{"x{.*}y{.*}", "\x00\xffa"},
		{"[^0-9]*x{[0-9]+}[^0-9]*", "12x34"},
		{".*x{a+b}.*", "aabab"},
		{"(a|b)*x{a}y{b?}(a|b)*", "abab"},
		// The corpus fuzzer's patterns.
		{"x{a+}", "aaa"},
		{"(a|b)*x{a+}(a|b)*", "baab"},
		{"x{(a|b)*}", "abba"},
		{"x{a*}y{b*}", "aabb"},
		{"(a|b)*x{a}y{b?}(a|b)*", "aba"},
		{"x{a*}(a|b)*y{a*}", "abaa"},
		{"a*x{a*}a*", ""},
		{"(a|b)*x{(a|b)+}(a|b)*", "bab"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, pattern, doc string) {
		if len(pattern) > 48 {
			pattern = pattern[:48]
		}
		if len(doc) > 32 {
			doc = doc[:32]
		}
		a, err := rgx.CompilePattern(pattern)
		if err != nil {
			return
		}
		checkBuildVsRef(t, a, doc)
	})
}

// TestBuildCacheFlush: (a|b)*a followed by twelve (a|b) has 2¹³ reachable
// forward sets, and a random 4 KiB {a,b} document meets thousands of them,
// so each build leaves its cache past buildFlushBytes and flushes it on
// the way back. Every graph must equal refPrepare's, and a graph
// built before a flush must still equal it, and enumerate the same, after
// later builds filled the cache's new arenas. A cache whose buffers
// outgrew maxBuildCacheBytes is dropped, not pooled.
func TestBuildCacheFlush(t *testing.T) {
	a := rgx.MustCompilePattern("(a|b)*a" + strings.Repeat("(a|b)", 12))
	p, err := NewPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(23))
	const docs = 4
	flushes := buildFlushes.Load()
	var built []*Enumerator
	var refs []*refEnumerator
	for i := 0; i < docs; i++ {
		doc := randDoc(r, 4096)
		doc = doc[:len(doc)-13] + "a" + doc[len(doc)-12:] // every document matches
		e := p.Prepare(doc)
		ref, err := refPrepare(a, doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := graphsEqual(e, ref); err != nil || e.Empty() {
			t.Fatalf("doc %d (empty %v): %v", i, e.Empty(), err)
		}
		built, refs = append(built, e), append(refs, ref)
	}
	if got := buildFlushes.Load() - flushes; got != docs {
		t.Fatalf("%d builds flushed %d times, want %d", docs, got, docs)
	}
	for i := range built {
		if err := graphsEqual(built[i], refs[i]); err != nil {
			t.Fatalf("doc %d after later builds: %v", i, err)
		}
		if !tuplesEqual(built[i].All(), refs[i].all()) {
			t.Fatalf("doc %d after later builds: tuples differ", i)
		}
	}
	if len(p.builds.items) != 1 || p.builds.items[0].retainedBytes() > maxBuildCacheBytes {
		t.Fatalf("%d caches pooled, want 1 within %d bytes", len(p.builds.items), maxBuildCacheBytes)
	}

	c := p.takeBuildCache()
	for i := int32(0); 4*len(c.fwd.keys) <= maxBuildCacheBytes; i++ {
		c.internFwd([]int32{i, i + 1})
	}
	drops := buildDrops.Load()
	p.putBuildCache(c)
	if len(p.builds.items) != 0 || buildDrops.Load() != drops+1 {
		t.Fatal("a build cache past its bound must be dropped, not pooled")
	}
}

// TestCountDFADropsOversized: a count DFA whose interned sets outgrew
// maxDFABytes is dropped, not pooled.
func TestCountDFADropsOversized(t *testing.T) {
	p, err := NewPlan(rgx.MustCompilePattern(".*x{a+}.*"))
	if err != nil {
		t.Fatal(err)
	}
	p.kernels()
	wide := p.takeDFA()
	for i := int32(0); 4*len(wide.sets.keys) <= maxDFABytes; i++ {
		wide.intern([]int32{i, i + 1})
	}
	if wide.retainedBytes() <= maxDFABytes {
		t.Fatalf("a DFA past its bound accounts only %d bytes", wide.retainedBytes())
	}
	dfaDrop := dfaDrops.Load()
	p.putDFA(wide)
	if len(p.dfas.items) != 0 || dfaDrops.Load() != dfaDrop+1 {
		t.Fatal("a DFA past its bound must be dropped, not pooled")
	}
}

// TestGraphPoolDropsOversized: Release must not pool graph arenas grown by
// a huge document — putGraph drops anything over the cap — while ordinary
// arenas keep cycling through the pool.
func TestGraphPoolDropsOversized(t *testing.T) {
	a := rgx.MustCompilePattern("a*x{a}a*")
	small, err := Prepare(a, strings.Repeat("a", 200))
	if err != nil {
		t.Fatal(err)
	}
	g := small.g
	small.g = nil
	if g.retainedBytes() > maxGraphRetain {
		t.Fatalf("small graph accounts %d bytes, expected under the %d cap", g.retainedBytes(), maxGraphRetain)
	}
	if !putGraph(g) {
		t.Fatal("small graph must be pooled")
	}

	// The per-level merge buffers are accounted too.
	wide := &graph{setsBuf: make([][]int32, 1, 4)}
	wide.setsBuf[0] = make([]int32, maxGraphRetain/4+1)
	drops := graphDrops.Load()
	if putGraph(wide) {
		t.Fatal("graph with an oversized merge buffer must be dropped")
	}
	if graphDrops.Load() != drops+1 {
		t.Fatal("drop counter did not advance")
	}

	// Through the real path: releasing an enumerator that built a huge
	// document routes its arenas to the drop branch, once.
	big, err := Prepare(a, strings.Repeat("a", 100_000))
	if err != nil {
		t.Fatal(err)
	}
	if big.g.retainedBytes() <= maxGraphRetain {
		t.Fatalf("huge build's graph accounts only %d bytes", big.g.retainedBytes())
	}
	drops = graphDrops.Load()
	big.Release()
	big.Release()
	if got := graphDrops.Load() - drops; got != 1 {
		t.Fatalf("two Releases dropped %d graphs, want 1", got)
	}
	if big.Levels() != nil || !big.Empty() {
		t.Fatal("a released enumerator still shows a graph")
	}
	if _, ok := big.Next(); ok {
		t.Fatal("a released enumerator must enumerate nothing")
	}
}

// TestGraphDropsTemplateViews: a graph views only its current build's
// templates, so nothing but a live build keeps a flushed cache's arenas
// alive. The wide automaton's build (.*x{a^256}.* on a^1024) takes its
// cache past the flush bound, and the views of its graph, levels and
// cursor sets alike, are all that keep its arenas alive. A shorter
// rebuild, a build that finds no match and Release must each drop them:
// no level or set may remain past the graph's current build, and after a
// collection every arena the views pointed into must be gone.
func TestGraphDropsTemplateViews(t *testing.T) {
	p, err := NewPlan(rgx.MustCompilePattern(".*x{" + strings.Repeat("a", 256) + "}.*"))
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("a", 1024)
	for _, leave := range []struct {
		name string
		do   func(e *Enumerator) *graph
	}{
		{"rebuilt shorter", func(e *Enumerator) *graph {
			if e.Reset(long[:300]); e.Empty() {
				t.Fatal("the short document has no results")
			}
			return e.g
		}},
		{"emptied", func(e *Enumerator) *graph {
			if e.Reset(long[:200]); !e.Empty() {
				t.Fatal("a document shorter than the capture has results")
			}
			return e.g
		}},
		{"released", func(e *Enumerator) *graph { g := e.g; e.Release(); return g }},
	} {
		e := p.NewEnumerator()
		flushes := buildFlushes.Load()
		e.Reset(long)
		if e.Empty() || buildFlushes.Load() != flushes+1 {
			t.Fatalf("the build (empty %v) did not flush its cache", e.Empty())
		}
		for k := 0; k < 4; k++ {
			if _, ok := e.Next(); !ok {
				t.Fatal("too few tuples")
			}
		}
		var views []weak.Pointer[int32]
		for _, lvl := range e.g.levels {
			views = append(views, weak.Make(&lvl[0].State))
		}
		for _, set := range e.g.sets {
			if len(set) > 0 {
				views = append(views, weak.Make(&set[0]))
			}
		}

		g := leave.do(e)
		if (g.startLetters == nil) != (len(g.levels) == 0) {
			t.Fatalf("%s: start fan-out without levels, or levels without one", leave.name)
		}
		for _, lvl := range g.levels[len(g.levels):cap(g.levels)] {
			if lvl != nil {
				t.Fatalf("%s: a level past the current build remains", leave.name)
			}
		}
		for _, set := range g.sets[:cap(g.sets)] {
			if set != nil {
				t.Fatalf("%s: a cursor set remains", leave.name)
			}
		}
		runtime.GC()
		for _, w := range views {
			if w.Value() != nil {
				t.Fatalf("%s: the graph keeps a flushed cache's arenas alive", leave.name)
			}
		}
		runtime.KeepAlive(e)
	}
}

// TestWindowBuildPooledArenaAllocs: a window build as Store.PagePlan runs
// it — a fresh enumerator over a plan whose kernels are built, one Reset,
// then Release — draws its graph arenas from the warm pool, its levels
// from the warm build cache, and allocates nothing.
func TestWindowBuildPooledArenaAllocs(t *testing.T) {
	a := rgx.MustCompilePattern(".*x{a+}.*y{b+}.*")
	p, err := NewPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	s := randDoc(rand.New(rand.NewSource(5)), 256)
	warm := p.Prepare(s)
	if warm.Empty() {
		t.Fatal("test document has no results")
	}
	warm.Release()
	// This assertion gates a window's table build on warm caches.
	//
	//spanjoin:allocgate spanjoin/internal/enum.(*buildCache).build
	avg := alloctest.Run(t, 20, func() {
		e := p.NewEnumerator()
		e.Reset(s)
		e.Release()
	})
	if avg != 0 {
		t.Fatalf("window build on a warm pool allocates %.1f per document, want 0", avg)
	}
}

// TestKernelsBuiltOnFirstUse: NewPlan builds no kernel — no letter table,
// no transition table; a plan used only through CountDoc builds the
// letters, the transition table and a count DFA, never a build cache or a
// graph arena; the first
// graph build adds a build cache. The count kernel and the DAG agree
// whichever runs first, and a second enumerator over the plan builds
// nothing.
func TestKernelsBuiltOnFirstUse(t *testing.T) {
	a := rgx.MustCompilePattern(".*x{a+}.*y{b+}.*")
	doc := randDoc(rand.New(rand.NewSource(7)), 40)
	for _, countFirst := range []bool{true, false} {
		before := vsa.TableBuildCount()
		p, err := NewPlan(a)
		if err != nil {
			t.Fatal(err)
		}
		if p.tt != nil || p.dfas.items != nil || p.builds.items != nil ||
			p.letterOf != nil || p.configs != nil || p.ct == nil {
			t.Fatal("NewPlan built a kernel")
		}
		e := p.NewEnumerator()
		var got ranked.Count
		if countFirst {
			got = e.CountDoc(doc)
			if p.tt == nil || len(p.dfas.items) != 1 || p.letterOf == nil || p.configs == nil {
				t.Fatal("CountDoc did not build the letters, the table and a count DFA")
			}
			if p.builds.items != nil || e.g != nil {
				t.Fatal("a count-only plan holds a build cache or graph arenas")
			}
		}
		e.Reset(doc)
		if len(p.builds.items) != 1 || p.letterOf == nil || p.configs == nil {
			t.Fatal("the first graph build did not leave the letters and a build cache")
		}
		if p.ct != nil {
			t.Fatal("a plan keeps its configuration table after its first use")
		}
		want := e.Rank().Count()
		if !countFirst {
			got = e.CountDoc(doc)
		}
		if got.String() != want.String() || got.IsZero() {
			t.Fatalf("countFirst=%v: CountDoc = %v, Rank().Count() = %v", countFirst, got, want)
		}
		o := p.NewEnumerator()
		if c := o.CountDoc(doc); c.String() != want.String() {
			t.Fatalf("second enumerator counts %v, want %v", c, want)
		}
		if n := vsa.TableBuildCount() - before; n != 1 {
			t.Fatalf("countFirst=%v: %d transition tables built, want 1", countFirst, n)
		}
	}
}

// TestPlanKernelsFirstUseConcurrent: eight enumerators over one fresh plan
// make its first CountDoc and Reset calls at once, half counting first and
// half building first (two of them after a membership test), so both
// kernels are built under contention. Then
// each builds and counts every worker's document, so the plan's build
// caches and count DFAs pass between workers and their templates are
// shared, and counts two 4 KiB documents on a second plan whose counts
// flush their DFA. Every result must match a sequential reference, and the
// first plan builds one set of letters and one table.
func TestPlanKernelsFirstUseConcurrent(t *testing.T) {
	a := rgx.MustCompilePattern(".*x{a+}.*y{b+}.*")
	r := rand.New(rand.NewSource(8))
	const workers = 8
	docs := make([]string, workers)
	want := make([][]span.Tuple, workers)
	ref, err := NewPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	for w := range docs {
		docs[w] = randDoc(r, 24+w)
		want[w] = ref.Prepare(docs[w]).All()
	}
	blowup, err := NewPlan(rgx.MustCompilePattern("(a|b)*x{a}(a|b)*a" + strings.Repeat("(a|b)", 12)))
	if err != nil {
		t.Fatal(err)
	}
	long := []string{randDoc(r, 4096), randDoc(r, 4096)}
	longWant := []ranked.Count{rankCount(t, blowup, long[0]), rankCount(t, blowup, long[1])}
	before, flushes := vsa.TableBuildCount(), dfaFlushes.Load()
	p, err := NewPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := p.NewEnumerator()
			doc := docs[w]
			<-start
			if w%4 == 3 && len(want[w]) > 0 && !p.Accepts(doc, want[w][0]) {
				t.Errorf("worker %d: the membership test rejects a result", w)
			}
			var n ranked.Count
			if w%2 == 0 {
				n = e.CountDoc(doc)
				e.Reset(doc)
			} else {
				e.Reset(doc)
				n = e.CountDoc(doc)
			}
			got := e.All()
			if !tuplesEqual(got, want[w]) {
				t.Errorf("worker %d: %d tuples differ from the sequential reference's %d", w, len(got), len(want[w]))
			}
			if u, ok := n.Uint64(); !ok || u != uint64(len(want[w])) {
				t.Errorf("worker %d: CountDoc = %v, want %d", w, n, len(want[w]))
			}
			for k := range docs {
				o := (w + k) % workers
				e.Reset(docs[o])
				if got := e.All(); !tuplesEqual(got, want[o]) {
					t.Errorf("worker %d: doc %d builds %d tuples, want %d", w, o, len(got), len(want[o]))
				}
				if u, ok := e.CountDoc(docs[o]).Uint64(); !ok || u != uint64(len(want[o])) {
					t.Errorf("worker %d: CountDoc(doc %d) = %d, want %d", w, o, u, len(want[o]))
				}
			}
			e.Release()
			b := blowup.NewEnumerator()
			for k := range long {
				o := (w + k) % len(long)
				if got := b.CountDoc(long[o]); got.String() != longWant[o].String() {
					t.Errorf("worker %d: long doc %d counts %v, want %v", w, o, got, longWant[o])
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if n := vsa.TableBuildCount() - before; n != 1 {
		t.Fatalf("%d transition tables built for one plan, want 1", n)
	}
	if p.letterOf == nil {
		t.Fatal("the plan has no letters after its first use")
	}
	if dfaFlushes.Load() == flushes {
		t.Fatal("no count flushed its DFA")
	}
}

// TestPrepareAllocatesAboutTheTable: a plan's first document composes the
// transition table from boundary closure lists and never builds an n×n
// closure matrix beside it, so on E8's A_eq at |s| = 16 (a¹⁶, 3,571
// states) Prepare plus a drain allocates less than twice the table's
// bytes. With the matrix built as well it allocated 4.0 MB against a
// 1.6 MB table.
func TestPrepareAllocatesAboutTheTable(t *testing.T) {
	s := strings.Repeat("a", 16)
	a, err := strequal.Apply(rgx.MustCompilePattern(".*x{a+}.*y{a+}.*"), s, [][2]string{{"x", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	var e *Enumerator
	b := alloctest.Bytes(t, 1, func() {
		if e, err = Prepare(a, s); err != nil {
			t.Fatal(err)
		}
		for _, ok := e.Next(); ok; _, ok = e.Next() {
		}
	})
	if table := e.plan.tt.Bytes(); b >= 2*float64(table) {
		t.Fatalf("Prepare plus a drain allocated %.0f B, want under twice the table's %d B", b, table)
	}
}
