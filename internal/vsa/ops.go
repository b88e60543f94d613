package vsa

import (
	"fmt"

	"spanjoin/internal/span"
)

// Project implements the projection operator π_Y (Lemma 3.8): it returns a
// functional vset-automaton A_Y with [[A_Y]] = [[π_Y(A)]], constructed in
// linear time by replacing every variable transition on a variable outside
// keep with an ε-transition.
//
// Variables in keep that A does not have are ignored; the result's variable
// set is Vars(A) ∩ keep.
func Project(a *VSA, keep span.VarList) (*VSA, error) {
	if !a.IsFunctional() {
		return nil, ErrNotFunctional
	}
	newVars := a.Vars.Intersect(keep)
	remap := make([]int32, len(a.Vars))
	for i, v := range a.Vars {
		remap[i] = int32(newVars.Index(v)) // -1 when dropped
	}
	out := &VSA{Vars: newVars, Adj: make([][]Tr, len(a.Adj)), Init: a.Init, Final: a.Final}
	for q, ts := range a.Adj {
		for _, t := range ts {
			nt := t
			if t.Kind == KOpen || t.Kind == KClose {
				if remap[t.Var] < 0 {
					nt = Tr{Kind: KEps, To: t.To}
				} else {
					nt.Var = remap[t.Var]
				}
			}
			out.Adj[q] = append(out.Adj[q], nt)
		}
	}
	return out, nil
}

// Union implements the union operator (Lemma 3.9): given functional
// automata with identical variable sets, it returns a functional automaton
// for [[A_1 ∪ … ∪ A_k]] via the standard NFA union construction (fresh
// initial and final states joined by ε-transitions), in linear time.
func Union(as ...*VSA) (*VSA, error) {
	if len(as) == 0 {
		return nil, fmt.Errorf("vsa: union of zero automata")
	}
	vars := as[0].Vars
	for _, a := range as[1:] {
		if !a.Vars.Equal(vars) {
			return nil, fmt.Errorf("vsa: union requires identical variable sets, got %v and %v", vars, a.Vars)
		}
	}
	for _, a := range as {
		if !a.IsFunctional() {
			return nil, ErrNotFunctional
		}
	}
	out := New(vars) // states 0 = init, 1 = final
	for _, a := range as {
		base := int32(len(out.Adj))
		for range a.Adj {
			out.AddState()
		}
		for q, ts := range a.Adj {
			for _, t := range ts {
				nt := t
				nt.To += base
				out.Adj[base+int32(q)] = append(out.Adj[base+int32(q)], nt)
			}
		}
		out.AddEps(out.Init, base+a.Init)
		out.AddEps(base+a.Final, out.Final)
	}
	return out, nil
}

// Functionalize converts an arbitrary vset-automaton into an equivalent
// functional one via the (state × configuration) product: states are pairs
// (q, ~c), transitions apply variable operations to ~c and drop operations
// that would invalidate the ref-word. The result has at most n·3^v states —
// the exponential blow-up in the number of variables shown by
// Freydenberger [15] and cited in §2.2.3 is therefore realized exactly.
//
// [[Functionalize(A)]] = [[A]] because [[A]](s) is defined over the *valid*
// ref-words of R(A) only.
func Functionalize(a *VSA) *VSA {
	v := len(a.Vars)
	out := &VSA{Vars: a.Vars}
	type key struct {
		q   int32
		cfg string
	}
	id := make(map[key]int32)
	var queue []key
	getState := func(q int32, c Config) int32 {
		k := key{q, c.Key()}
		if s, ok := id[k]; ok {
			return s
		}
		s := out.AddState()
		id[k] = s
		queue = append(queue, k)
		return s
	}
	initCfg := make(Config, v)
	out.Init = getState(a.Init, initCfg)
	finalCfg := make(Config, v)
	for i := range finalCfg {
		finalCfg[i] = C
	}
	out.Final = getState(a.Final, finalCfg)
	decode := func(s string) Config {
		c := make(Config, len(s))
		for i := 0; i < len(s); i++ {
			c[i] = VarState(s[i])
		}
		return c
	}
	next := make(Config, v) // getState keys by a copy
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		src := id[k]
		cfg := decode(k.cfg)
		for _, t := range a.Adj[k.q] {
			if applyOp(next, cfg, t) != nil {
				continue // invalid operation: this run cannot yield a valid ref-word
			}
			dst := getState(t.To, next)
			nt := t
			nt.To = dst
			out.Adj[src] = append(out.Adj[src], nt)
		}
	}
	return out.Trim()
}
