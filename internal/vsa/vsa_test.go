package vsa_test

import (
	"errors"
	"testing"

	"spanjoin/internal/alphabet"
	"spanjoin/internal/enum"
	"spanjoin/internal/oracle"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
)

// example26A builds the non-functional automaton A of Example 2.6: a single
// state that is both initial and final, with self-loops x⊢, a, ⊣x.
func example26A() *vsa.VSA {
	a := &vsa.VSA{Vars: span.NewVarList("x"), Adj: make([][]vsa.Tr, 1), Init: 0, Final: 0}
	a.AddOpen(0, 0, 0)
	a.AddChar(0, alphabet.Single('a'), 0)
	a.AddClose(0, 0, 0)
	return a
}

// example26Afun builds the functional automaton A_fun of Example 2.6 /
// Example 4.1: q0 -x⊢→ q1 -⊣x→ q2 with a-loops on every state.
func example26Afun() *vsa.VSA {
	a := &vsa.VSA{Vars: span.NewVarList("x"), Adj: make([][]vsa.Tr, 3), Init: 0, Final: 2}
	a.AddChar(0, alphabet.Single('a'), 0)
	a.AddOpen(0, 0, 1)
	a.AddChar(1, alphabet.Single('a'), 1)
	a.AddClose(1, 0, 2)
	a.AddChar(2, alphabet.Single('a'), 2)
	return a
}

func TestExample26Functionality(t *testing.T) {
	if example26A().IsFunctional() {
		t.Error("A of Example 2.6 must not be functional")
	}
	if !example26Afun().IsFunctional() {
		t.Error("A_fun of Example 2.6 must be functional")
	}
}

func TestExample26Equivalence(t *testing.T) {
	// A and A_fun are equivalent: [[A]](s) = [[A_fun]](s). The oracle handles
	// non-functional automata directly (validity is checked per ref-word).
	a := example26A()
	afun := example26Afun()
	for _, s := range []string{"", "a", "aa", "aaa", "b", "ab"} {
		got := oracle.EvalVSA(a, s)
		want := oracle.EvalVSA(afun, s)
		if !oracle.EqualTupleSets(got, want) {
			t.Errorf("on %q: A gives %v, A_fun gives %v", s, got, want)
		}
	}
	// For s ∈ a*, [[A]](s) contains all possible ({x}, s)-tuples.
	got := oracle.EvalVSA(a, "aa")
	if len(got) != 6 {
		t.Errorf("[[A]](aa) has %d tuples, want 6 (all spans)", len(got))
	}
	// For s ∉ a*, [[A]](s) = ∅.
	if n := len(oracle.EvalVSA(a, "ab")); n != 0 {
		t.Errorf("[[A]](ab) has %d tuples, want 0", n)
	}
}

// TestExample41Configs reproduces Example 4.1: the variable configurations
// of A_fun.
func TestExample41Configs(t *testing.T) {
	a := example26Afun()
	trimmed, ct, err := a.RequireFunctional()
	if err != nil {
		t.Fatal(err)
	}
	want := []vsa.VarState{vsa.W, vsa.O, vsa.C}
	for q, st := range want {
		if ct.Cfg[q][0] != st {
			t.Errorf("~c_q%d(x) = %v, want %v", q, ct.Cfg[trimmed.Init+int32(q)][0], st)
		}
	}
}

func TestConfigTableRejectsNonFunctional(t *testing.T) {
	_, err := example26A().Trim().ConfigTableOf()
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, vsa.ErrNotFunctional) {
		t.Fatalf("error %v does not wrap ErrNotFunctional", err)
	}
}

func TestConfigTableUnclosedVariable(t *testing.T) {
	// x is opened but never closed: final configuration not all-closed.
	a := vsa.New(span.NewVarList("x"))
	a.AddOpen(a.Init, 0, a.Final)
	_, err := a.Trim().ConfigTableOf()
	if !errors.Is(err, vsa.ErrNotFunctional) {
		t.Fatalf("got %v, want ErrNotFunctional", err)
	}
}

func TestTrim(t *testing.T) {
	a := vsa.New(nil)
	mid := a.AddState()
	dead := a.AddState() // reachable but not co-reachable
	a.AddChar(a.Init, alphabet.Single('a'), mid)
	a.AddChar(mid, alphabet.Single('b'), a.Final)
	a.AddChar(mid, alphabet.Single('c'), dead)
	orphan := a.AddState() // not reachable
	a.AddChar(orphan, alphabet.Single('d'), a.Final)

	tr := a.Trim()
	if tr.NumStates() != 3 {
		t.Errorf("trimmed to %d states, want 3", tr.NumStates())
	}
	if tr.NumTransitions() != 2 {
		t.Errorf("trimmed to %d transitions, want 2", tr.NumTransitions())
	}
	// Language must be preserved.
	want := oracle.EvalVSA(a, "ab")
	got := oracle.EvalVSA(tr, "ab")
	if !oracle.EqualTupleSets(got, want) {
		t.Error("trim changed the language")
	}
}

func TestTrimEmptyLanguage(t *testing.T) {
	a := vsa.New(nil) // no transitions at all
	tr := a.Trim()
	if !tr.IsEmptyLanguage() {
		t.Error("expected empty language")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := example26Afun()
	b := a.Clone()
	b.AddChar(0, alphabet.Single('z'), 2)
	if a.NumTransitions() == b.NumTransitions() {
		t.Error("clone shares transition storage")
	}
}

func TestIsFunctionalIgnoresUselessStates(t *testing.T) {
	// A functional core plus a junk state with an invalid variable op that
	// cannot reach the final state: still functional (R(A) unaffected).
	a := rgx.MustCompilePattern("x{a}")
	junk := a.AddState()
	a.AddClose(a.Init, 0, junk) // close before open, but junk is a dead end
	if !a.IsFunctional() {
		t.Error("useless states must not affect functionality")
	}
}

func TestEvalMatchesOracleOnHandBuiltAutomata(t *testing.T) {
	// Hand-built automaton with a non-trivial ε/variable structure:
	// (x over a run of a's) with an optional prefix letter.
	a := vsa.New(span.NewVarList("x"))
	s1 := a.AddState()
	s2 := a.AddState()
	a.AddEps(a.Init, s1)
	a.AddChar(a.Init, alphabet.Single('b'), s1)
	a.AddOpen(s1, 0, s2)
	a.AddChar(s2, alphabet.Single('a'), s2)
	a.AddClose(s2, 0, a.Final)
	if !a.IsFunctional() {
		t.Fatal("test automaton should be functional")
	}
	for _, s := range []string{"", "a", "b", "ba", "baa", "ab", "aa"} {
		want := oracle.EvalVSA(a, s)
		_, got, err := enum.Eval(a, s)
		if err != nil {
			t.Fatal(err)
		}
		if !oracle.EqualTupleSets(got, want) {
			t.Errorf("on %q: got %v, want %v", s, got, want)
		}
	}
}
