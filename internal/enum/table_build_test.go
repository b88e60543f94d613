package enum

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"spanjoin/internal/oracle"
	"spanjoin/internal/ranked"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
)

// graphsEqual compares two enumerators' layered graphs structurally:
// levels (states and letters), edges (letter-grouped targets) and the
// virtual start fan-out must be identical, node by node.
func graphsEqual(matrix, ref *Enumerator) error {
	if matrix.Empty() != ref.Empty() {
		return fmt.Errorf("emptiness: matrix %v, ref %v", matrix.Empty(), ref.Empty())
	}
	if matrix.Empty() {
		return nil
	}
	ml, rl := matrix.Levels(), ref.Levels()
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
	if !groupsEqual(matrix.startLetters, matrix.startByLetter, ref.startLetters, ref.startByLetter) {
		return fmt.Errorf("start fan-out differs")
	}
	return nil
}

// checkBuildVsRef builds s both ways and requires identical graphs and
// identical tuple streams.
func checkBuildVsRef(t *testing.T, a *vsa.VSA, s string) {
	t.Helper()
	m, err := Prepare(a, s)
	if err != nil {
		t.Fatal(err)
	}
	r, err := PrepareRef(a, s)
	if err != nil {
		t.Fatal(err)
	}
	if !r.refBuild {
		t.Fatal("PrepareRef did not select the reference build")
	}
	if err := graphsEqual(m, r); err != nil {
		t.Fatalf("graph mismatch on %q: %v", s, err)
	}
	// PrepareOnce (table-less single-use plan) must agree too.
	o, err := PrepareOnce(a, s)
	if err != nil {
		t.Fatal(err)
	}
	if o.tt != nil {
		t.Fatal("PrepareOnce compiled a transition table")
	}
	if err := graphsEqual(m, o); err != nil {
		t.Fatalf("PrepareOnce graph mismatch on %q: %v", s, err)
	}
	mn, me := m.GraphSize()
	rn, re := r.GraphSize()
	if mn != rn || me != re {
		t.Fatalf("graph size on %q: matrix (%d,%d), ref (%d,%d)", s, mn, me, rn, re)
	}
	if !tuplesEqual(m.All(), r.All()) {
		t.Fatalf("tuple streams differ on %q", s)
	}
}

// TestMatrixBuildMatchesReferenceOnPatterns cross-validates the byte-class
// matrix sweep against the preserved per-transition build on compiled
// patterns over random documents, including patterns whose byte classes go
// beyond {a, b} and documents containing dead bytes.
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
		r, err := PrepareRef(a, doc)
		if err != nil {
			t.Fatal(err)
		}
		want := r.All()
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
	r, _ := PrepareRef(a, "aa")
	if !tuplesEqual(e.All(), r.All()) {
		t.Fatal("Reset after the dead-byte fast path diverges from the reference")
	}
}

// FuzzBuildVsRef is the differential fuzz harness for the compiled
// transition table: arbitrary documents (raw fuzz bytes, so all 256 byte
// values and every byte class appear) through a fuzz-chosen pattern must
// produce identical layered graphs and identical tuple streams under the
// matrix sweep and the per-transition reference build.
func FuzzBuildVsRef(f *testing.F) {
	patterns := []string{
		"a*x{a*}a*",
		"(a|b)*x{a+}(a|b)*",
		"x{.*}y{.*}",
		"[^0-9]*x{[0-9]+}[^0-9]*",
		".*x{a+b}.*",
		"(a|b)*x{a}y{b?}(a|b)*",
	}
	f.Add(uint8(0), "aaa")
	f.Add(uint8(1), "abba")
	f.Add(uint8(3), "12x34")
	f.Add(uint8(2), "\x00\xffa")
	f.Add(uint8(4), "aabab")
	f.Fuzz(func(t *testing.T, pi uint8, doc string) {
		if len(doc) > 32 {
			doc = doc[:32]
		}
		a := rgx.MustCompilePattern(patterns[int(pi)%len(patterns)])
		checkBuildVsRef(t, a, doc)
	})
}

// TestScratchPoolDropsOversized: the build-scratch pool must not retain
// arenas grown by a huge document — putScratch drops anything over the
// cap so steady-state memory tracks the working set, while ordinary
// scratches keep cycling through the pool.
func TestScratchPoolDropsOversized(t *testing.T) {
	small := new(prepScratch)
	small.init(64, 200, 4)
	if small.retainedBytes() > maxScratchRetain {
		t.Fatalf("small scratch accounts %d bytes, expected under the %d cap",
			small.retainedBytes(), maxScratchRetain)
	}
	if !putScratch(small) {
		t.Fatal("small scratch must be pooled")
	}

	big := new(prepScratch)
	big.init(512, 400_000, 4) // two (N+1)×n matrices ≈ 26 MB
	if big.retainedBytes() <= maxScratchRetain {
		t.Fatalf("oversized scratch accounts only %d bytes", big.retainedBytes())
	}
	drops := scratchDrops.Load()
	if putScratch(big) {
		t.Fatal("oversized scratch must be dropped, not pooled")
	}
	if scratchDrops.Load() != drops+1 {
		t.Fatal("drop counter did not advance")
	}

	// The count kernel's level tables are accounted too: one level of
	// 200,000 two-word sets outgrows the cap on its own.
	wide := new(prepScratch)
	tb := &wide.count[1]
	tb.reset(2)
	for i := uint64(0); i < 200_000; i++ {
		key := tb.push()
		key[0], key[1] = i, 0
		tb.add(ranked.CountOf(1))
	}
	if wide.retainedBytes() <= maxScratchRetain {
		t.Fatalf("scratch with a wide count table accounts only %d bytes", wide.retainedBytes())
	}
	if putScratch(wide) {
		t.Fatal("scratch with an oversized count table must be dropped")
	}
}

// TestBuildDropsOversizedScratch drives the cap through the real build
// path: one huge document must route its scratch to the drop branch.
func TestBuildDropsOversizedScratch(t *testing.T) {
	a := rgx.MustCompilePattern("a*x{a}a*")
	doc := strings.Repeat("a", 600_000)
	drops := scratchDrops.Load()
	e, err := Prepare(a, doc)
	if err != nil {
		t.Fatal(err)
	}
	if e.Empty() {
		t.Fatal("huge document unexpectedly empty")
	}
	if scratchDrops.Load() <= drops {
		t.Fatal("huge build did not drop its scratch")
	}
}
