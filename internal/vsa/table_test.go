package vsa_test

import (
	"math/rand"
	"testing"

	"spanjoin/internal/alphabet"
	"spanjoin/internal/bitset"
	"spanjoin/internal/oracle"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
)

// trimmed compiles the table input the way enum's Plan does.
func trimmed(t *testing.T, a *vsa.VSA) *vsa.VSA {
	t.Helper()
	tr, _, err := a.RequireFunctional()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// refClosure is the reference variable-ε closure VE(q): every state a
// search over ε- and variable transitions reaches from q, q included.
func refClosure(a *vsa.VSA, q int32) bitset.Row {
	row := bitset.NewRow(a.NumStates())
	row.Set(q)
	stack := []int32{q}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, x := range a.Adj[p] {
			if x.Kind != vsa.KChar && !row.Test(x.To) {
				row.Set(x.To)
				stack = append(stack, x.To)
			}
		}
	}
	return row
}

// TestTransitionTablePartition: the byte classes must be a partition of the
// 256 byte values such that every transition's CharClass treats all bytes
// of one class identically — the defining property of the compression.
func TestTransitionTablePartition(t *testing.T) {
	patterns := []string{
		`.*x{a+}.*y{b+}.*`,
		`[^0-9]*x{[0-9]+}[^0-9]*`,
		`(a|b)*x{(a|b)+}(a|b)*`,
		`x{.*}`,
	}
	for _, p := range patterns {
		a := rgx.MustCompilePattern(p)
		tr := trimmed(t, a)
		tt := vsa.NewTransitionTable(tr)
		if tt.NumClasses() < 1 || tt.NumClasses() > 256 {
			t.Fatalf("%s: %d classes", p, tt.NumClasses())
		}
		seenClass := make(map[int]bool)
		for b := 0; b < 256; b++ {
			c := tt.ClassOf(byte(b))
			if c < 0 || c >= tt.NumClasses() {
				t.Fatalf("%s: byte %d in class %d of %d", p, b, c, tt.NumClasses())
			}
			seenClass[c] = true
			rep := tt.Repr(c)
			for _, ts := range tr.Adj {
				for _, x := range ts {
					if x.Kind != vsa.KChar {
						continue
					}
					if x.Class.Contains(byte(b)) != x.Class.Contains(rep) {
						t.Fatalf("%s: byte %d and its representative %d disagree on %v",
							p, b, rep, x.Class)
					}
				}
			}
		}
		if len(seenClass) != tt.NumClasses() {
			t.Fatalf("%s: %d classes declared, %d inhabited", p, tt.NumClasses(), len(seenClass))
		}
	}
}

// TestTransitionTableRows: every matrix row must equal the union of
// VE-closure rows over the transitions the class matches, restricted to
// the boundary states (the states with a character transition, plus qf),
// all recomputed here transition by transition from refClosure; so must
// the start row VE(Init). A nil matrix is only allowed for a class no
// transition accepts.
func TestTransitionTableRows(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	vars := span.NewVarList("x", "y")
	for trial := 0; trial < 60; trial++ {
		a := oracle.RandomFunctionalVSA(r, vars, 5, 14)
		tr := trimmed(t, a)
		tt := vsa.NewTransitionTable(tr)
		n := tr.NumStates()
		mask := bitset.NewRow(n)
		mask.Set(tr.Final)
		for q := range tr.Adj {
			for _, x := range tr.Adj[q] {
				if x.Kind == vsa.KChar {
					mask.Set(int32(q))
				}
			}
		}
		want := bitset.NewRow(n)
		want.CopyFrom(refClosure(tr, tr.Init))
		want.And(mask)
		if !tt.Start().Equal(want) {
			t.Fatalf("trial %d: start row mismatch", trial)
		}
		for c := 0; c < tt.NumClasses(); c++ {
			rep := tt.Repr(c)
			m := tt.ClassMat(c)
			live := false
			for q := 0; q < n; q++ {
				want.Zero()
				for _, x := range tr.Adj[q] {
					if x.Kind == vsa.KChar && x.Class.Contains(rep) {
						live = true
						want.Or(refClosure(tr, x.To))
					}
				}
				want.And(mask)
				if m == nil {
					if live {
						t.Fatalf("trial %d: class %d has transitions but a nil matrix", trial, c)
					}
					continue
				}
				if !m.Row(q).Equal(want) {
					t.Fatalf("trial %d: class %d row %d mismatch", trial, c, q)
				}
			}
			if !live && m != nil {
				t.Fatalf("trial %d: dead class %d carries a matrix", trial, c)
			}
		}
	}
}

// TestTransitionTableSingleByteAutomaton: an automaton over one letter
// partitions the bytes into exactly {that letter} and the dead rest, and
// the dead bytes' class has a nil matrix.
func TestTransitionTableSingleByteAutomaton(t *testing.T) {
	a := vsa.New(span.NewVarList("x"))
	mid := a.AddState()
	a.AddOpen(a.Init, 0, mid)
	q := a.AddState()
	a.AddChar(mid, alphabet.Single('a'), q)
	a.AddClose(q, 0, a.Final)
	tr := trimmed(t, a)
	tt := vsa.NewTransitionTable(tr)
	if tt.NumClasses() != 2 {
		t.Fatalf("classes = %d, want 2 ({a} and the dead rest)", tt.NumClasses())
	}
	if tt.ClassMat(tt.ClassOf('a')) == nil {
		t.Fatal("nil matrix for a live byte")
	}
	if tt.ClassMat(tt.ClassOf('b')) != nil || tt.ClassMat(tt.ClassOf(0)) != nil {
		t.Fatal("dead bytes must map to a nil matrix")
	}
	if tt.ClassOf('a') == tt.ClassOf('b') {
		t.Fatal("'a' and 'b' must fall in different classes")
	}
}

// TestTableBuildCountMonotonic: the build counter observes each
// construction exactly once.
func TestTableBuildCountMonotonic(t *testing.T) {
	a := rgx.MustCompilePattern(`x{a}`)
	tr := trimmed(t, a)
	before := vsa.TableBuildCount()
	vsa.NewTransitionTable(tr)
	vsa.NewTransitionTable(tr)
	if got := vsa.TableBuildCount() - before; got != 2 {
		t.Fatalf("counter advanced by %d, want 2", got)
	}
}

// signatureClasses is the reference byte partition: each byte's membership
// signature over the distinct character-transition classes, interned in a
// map, with class ids in the order a scan of the bytes first meets them
// and each class represented by its first byte.
func signatureClasses(a *vsa.VSA) (classOf [256]int, repr []byte) {
	var distinct []alphabet.Class
	seen := make(map[alphabet.Class]bool)
	for _, ts := range a.Adj {
		for _, tr := range ts {
			if tr.Kind == vsa.KChar && !seen[tr.Class] {
				seen[tr.Class] = true
				distinct = append(distinct, tr.Class)
			}
		}
	}
	sig := make([]byte, (len(distinct)+7)/8)
	ids := make(map[string]int)
	for b := 0; b < 256; b++ {
		clear(sig)
		for i, c := range distinct {
			if c.Contains(byte(b)) {
				sig[i>>3] |= 1 << (i & 7)
			}
		}
		id, ok := ids[string(sig)]
		if !ok {
			id = len(repr)
			ids[string(sig)] = id
			repr = append(repr, byte(b))
		}
		classOf[b] = id
	}
	return classOf, repr
}

// TestPartitionMatchesSignatures: the table's partition refinement numbers
// every byte and represents every class exactly as the signature reference
// does, on 3,000 random functional automata and four patterns with
// overlapping classes.
func TestPartitionMatchesSignatures(t *testing.T) {
	check := func(what string, a *vsa.VSA) {
		t.Helper()
		tr := trimmed(t, a)
		tt := vsa.NewTransitionTable(tr)
		classOf, repr := signatureClasses(tr)
		if tt.NumClasses() != len(repr) {
			t.Fatalf("%s: %d classes, reference %d", what, tt.NumClasses(), len(repr))
		}
		for b := 0; b < 256; b++ {
			if tt.ClassOf(byte(b)) != classOf[b] {
				t.Fatalf("%s: byte %d in class %d, reference %d", what, b, tt.ClassOf(byte(b)), classOf[b])
			}
		}
		for c, rep := range repr {
			if tt.Repr(c) != rep {
				t.Fatalf("%s: class %d represented by %d, reference %d", what, c, tt.Repr(c), rep)
			}
		}
	}
	r := rand.New(rand.NewSource(44))
	vars := span.NewVarList("x", "y")
	for i := 0; i < 3000; i++ {
		check("random automaton", oracle.RandomFunctionalVSA(r, vars, 5, 14))
	}
	for _, p := range []string{
		`s{Kerkstraat 12}, z{[0-9][0-9][0-9][0-9]} c{[A-Z][a-z]+}`,
		`.*mail{[a-z]+@[a-z]+\.[a-z]+}.*`,
		`[^0-9]*x{[0-9]+}[ :=]y{[a-z]+}.*`,
		`x{[\x00-\x7f]*}[^a-f]y{[c-p]+}`,
	} {
		check(p, rgx.MustCompilePattern(p))
	}
}
