package vsa

import (
	"fmt"
	"strings"
)

// Join implements the natural-join operator ⋈ on functional vset-automata
// (Lemma 3.10). Given functional A1 and A2, it constructs a functional A
// with [[A]] = [[A1 ⋈ A2]] over Vars(A1) ∪ Vars(A2).
//
// The construction synchronizes the two automata at *boundary states* — the
// q̂ states of the paper's §4.1: states from which a character is read next
// (or the final state). Product states are consistent boundary pairs
// (variable configurations agree on the shared variables); a transition
//
//	(p1,p2) --σ--> ops… --> (q1,q2)
//
// exists when qi ∈ VE_i(δ_i(p_i, σ)) for both i, where VE is the ε-and-
// variable closure, and ops is the canonical chain of joint variable
// operations taking the source configuration to the target one (the
// "A_strict" expansion of the paper's rule 3). Chains are keyed by
// (target, remaining suffix) and shared across sources, so op-heavy
// automata do not blow up. The construction is O(v·n⁴) like the lemma:
// boundary pairs are O(n²) and each inspects O(n²) successor pairs.
func Join(a1, a2 *VSA) (*VSA, error) {
	t1, ct1, err := a1.RequireFunctional()
	if err != nil {
		return nil, err
	}
	t2, ct2, err := a2.RequireFunctional()
	if err != nil {
		return nil, err
	}
	if t1.IsEmptyLanguage() || t2.IsEmptyLanguage() {
		return New(t1.Vars.Union(t2.Vars)), nil
	}
	j := &joiner{a1: t1, a2: t2, ct1: ct1, ct2: ct2}
	return j.run()
}

type joiner struct {
	a1, a2   *VSA
	ct1, ct2 *ConfigTable

	// veb1[q]/veb2[q]: the boundary states of VE(q) (boundaryClosures).
	veb1, veb2 [][]int32

	out *VSA
	// shared variable positions and joint index maps.
	shared1, shared2 []int32
	map1, map2       []int32

	ids      map[[2]int32]int32
	queue    [][2]int32
	chainIDs map[string]int32
	edgeSeen map[string]bool
}

func (j *joiner) run() (*VSA, error) {
	jv := j.a1.Vars.Union(j.a2.Vars)
	j.out = &VSA{Vars: jv}
	j.map1 = make([]int32, len(j.a1.Vars))
	for i, v := range j.a1.Vars {
		j.map1[i] = int32(jv.Index(v))
	}
	j.map2 = make([]int32, len(j.a2.Vars))
	for i, v := range j.a2.Vars {
		j.map2[i] = int32(jv.Index(v))
		if k := j.a1.Vars.Index(v); k >= 0 {
			j.shared1 = append(j.shared1, int32(k))
			j.shared2 = append(j.shared2, int32(i))
		}
	}
	j.veb1 = j.a1.boundaryClosures()
	j.veb2 = j.a2.boundaryClosures()
	j.ids = make(map[[2]int32]int32)
	j.chainIDs = make(map[string]int32)
	j.edgeSeen = make(map[string]bool)

	init := j.out.AddState()
	j.out.Init = init
	// Initial gap: ε/variable moves before the first character.
	srcCfg := j.jointConfig(j.ct1.Cfg[j.a1.Init], j.ct2.Cfg[j.a2.Init])
	for _, q1 := range j.veb1[j.a1.Init] {
		for _, q2 := range j.veb2[j.a2.Init] {
			if !j.consistent(q1, q2) {
				continue
			}
			j.emitGap(init, KEps, Tr{}, srcCfg, q1, q2)
		}
	}
	// Worklist over boundary pairs.
	for len(j.queue) > 0 {
		p := j.queue[0]
		j.queue = j.queue[1:]
		src := j.ids[p]
		cfg := j.jointConfig(j.ct1.Cfg[p[0]], j.ct2.Cfg[p[1]])
		for _, tr1 := range j.a1.Adj[p[0]] {
			if tr1.Kind != KChar {
				continue
			}
			for _, tr2 := range j.a2.Adj[p[1]] {
				if tr2.Kind != KChar {
					continue
				}
				cls := tr1.Class.Intersect(tr2.Class)
				if cls.IsEmpty() {
					continue
				}
				for _, q1 := range j.veb1[tr1.To] {
					for _, q2 := range j.veb2[tr2.To] {
						if !j.consistent(q1, q2) {
							continue
						}
						j.emitGap(src, KChar, Tr{Kind: KChar, Class: cls}, cfg, q1, q2)
					}
				}
			}
		}
	}
	fid, ok := j.ids[[2]int32{j.a1.Final, j.a2.Final}]
	if !ok {
		return New(jv), nil
	}
	j.out.Final = fid
	return j.out.Trim(), nil
}

func (j *joiner) consistent(q1, q2 int32) bool {
	c1 := j.ct1.Cfg[q1]
	c2 := j.ct2.Cfg[q2]
	for k := range j.shared1 {
		if c1[j.shared1[k]] != c2[j.shared2[k]] {
			return false
		}
	}
	return true
}

func (j *joiner) getPair(q1, q2 int32) int32 {
	k := [2]int32{q1, q2}
	if s, ok := j.ids[k]; ok {
		return s
	}
	s := j.out.AddState()
	j.ids[k] = s
	j.queue = append(j.queue, k)
	return s
}

// jointConfig merges per-automaton configurations into one over the joint
// variable list (shared variables agree by consistency).
func (j *joiner) jointConfig(c1, c2 Config) Config {
	out := make(Config, len(j.out.Vars))
	for i, v := range c1 {
		out[j.map1[i]] = v
	}
	for i, v := range c2 {
		out[j.map2[i]] = v
	}
	return out
}

// op is a single joint variable operation of a gap chain.
type jop struct {
	v    int32
	kind Kind
}

// emitGap adds a transition from src into the boundary pair (q1,q2),
// prefixed by `lead` (a character transition or ε for the initial gap) and
// followed by the canonical chain of variable operations bridging the
// configurations. Chain suffixes are interned on (target, suffix) so they
// are shared across sources.
func (j *joiner) emitGap(src int32, leadKind Kind, lead Tr, srcCfg Config, q1, q2 int32) {
	dstCfg := j.jointConfig(j.ct1.Cfg[q1], j.ct2.Cfg[q2])
	ops := diffOps(srcCfg, dstCfg)
	dst := j.getPair(q1, q2)
	// Entry point: the state from which the op chain starts (dst if none).
	entry := j.chainEntry(dst, ops)
	var ek string
	if leadKind == KChar {
		ek = fmt.Sprintf("c%d;%v;%d", src, lead.Class, entry)
	} else {
		ek = fmt.Sprintf("e%d;%d", src, entry)
	}
	if j.edgeSeen[ek] {
		return
	}
	j.edgeSeen[ek] = true
	if leadKind == KChar {
		j.out.AddChar(src, lead.Class, entry)
	} else if src != entry {
		j.out.AddEps(src, entry)
	}
}

// diffOps lists the operations taking cfg from src to dst in canonical
// order: opens (ascending joint variable index) then closes, so a variable
// going w→c in one gap stays well ordered.
func diffOps(src, dst Config) []jop {
	var opens, closes []jop
	for v := range src {
		from, to := src[v], dst[v]
		switch {
		case from == to:
		case from == W && to == O:
			opens = append(opens, jop{int32(v), KOpen})
		case from == O && to == C:
			closes = append(closes, jop{int32(v), KClose})
		case from == W && to == C:
			opens = append(opens, jop{int32(v), KOpen})
			closes = append(closes, jop{int32(v), KClose})
		default:
			panic("vsa: non-monotone configuration change in join")
		}
	}
	return append(opens, closes...)
}

// chainEntry returns the state beginning the op chain into dst, creating
// shared suffix states as needed. With no ops it is dst itself.
func (j *joiner) chainEntry(dst int32, ops []jop) int32 {
	cur := dst
	// Build backward: suffix ops[i:] ends at dst.
	for i := len(ops) - 1; i >= 0; i-- {
		key := chainKey(dst, ops[i:])
		st, ok := j.chainIDs[key]
		if !ok {
			st = j.out.AddState()
			j.chainIDs[key] = st
			if ops[i].kind == KOpen {
				j.out.AddOpen(st, ops[i].v, cur)
			} else {
				j.out.AddClose(st, ops[i].v, cur)
			}
		}
		cur = st
	}
	return cur
}

func chainKey(dst int32, suffix []jop) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d", dst)
	for _, o := range suffix {
		fmt.Fprintf(&sb, ";%d,%d", o.v, o.kind)
	}
	return sb.String()
}

// JoinAll joins k automata left to right. Per the paper (discussion after
// Lemma 3.10) the size can grow as O(n^2k); this is the operation whose
// unbounded use makes acyclic regex CQs intractable (Thm 3.2), so callers
// should bound k.
func JoinAll(as ...*VSA) (*VSA, error) {
	if len(as) == 0 {
		return nil, ErrNotFunctional
	}
	acc := as[0]
	var err error
	for _, a := range as[1:] {
		acc, err = Join(acc, a)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}
