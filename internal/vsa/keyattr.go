package vsa

// KeyAttribute decides whether the variable x is a key attribute of the
// functional vset-automaton A (Prop 3.6): x is a key iff for every string s
// and tuples µ, µ′ ∈ [[A]](s), µ(x) = µ′(x) implies µ = µ′.
//
// The decision procedure is the paper's product construction: simulate two
// copies of A on a common string, requiring the two runs' variable
// configurations to agree on x at every character boundary, and track with
// a flag whether they have disagreed on some other variable. x fails to be
// a key iff a flagged pair of final states is reachable. Runs in O(n⁴).
func KeyAttribute(a *VSA, x string) (bool, error) {
	t, ct, err := a.RequireFunctional()
	if err != nil {
		return false, err
	}
	xi := t.Vars.Index(x)
	if xi < 0 {
		return false, errUnknownVar(x)
	}
	return isKey(t, ct, t.boundaryClosures(), xi), nil
}

// HasKeyAttribute reports whether any variable of A is a key attribute —
// the paper's second example of a polynomially bounded class (§3.3.2). It
// trims A, checks functionality and builds the closures once for all the
// variables.
func HasKeyAttribute(a *VSA) (string, bool, error) {
	t, ct, err := a.RequireFunctional()
	if err != nil {
		return "", false, err
	}
	ve := t.boundaryClosures()
	for xi, x := range t.Vars {
		if isKey(t, ct, ve, xi) {
			return x, true, nil
		}
	}
	return "", false, nil
}

// isKey runs KeyAttribute's product on the trimmed automaton t, its
// configuration table and boundary closures ve, for the variable with
// index xi. An empty language has no boundary state in VE(Init), so its
// product is empty and every variable is vacuously a key.
func isKey(t *VSA, ct *ConfigTable, ve [][]int32, xi int) bool {
	// Tuples are determined by the configuration sequence at the boundary
	// states q̂_0 … q̂_N (§4.1): q̂_0 ∈ VE(q0), q̂_{i+1} ∈ VE(δ(q̂_i, σ)),
	// and q̂_N = qf. The product walks pairs of boundary states.
	type pkey struct {
		flag   bool
		q1, q2 int32
	}
	seen := make(map[pkey]bool)
	var queue []pkey
	// pushPairs enqueues all pairs (e1, e2) with e1 ∈ VE(to1), e2 ∈ VE(to2)
	// agreeing on x, carrying the disagreement flag.
	pushPairs := func(to1, to2 int32, flag bool) {
		for _, e1 := range ve[to1] {
			c1 := ct.Cfg[e1]
			for _, e2 := range ve[to2] {
				c2 := ct.Cfg[e2]
				if c1[xi] != c2[xi] {
					continue
				}
				k := pkey{flag: flag || !c1.Equal(c2), q1: e1, q2: e2}
				if !seen[k] {
					seen[k] = true
					queue = append(queue, k)
				}
			}
		}
	}
	// Initial boundary states.
	pushPairs(t.Init, t.Init, false)
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		if k.flag && k.q1 == t.Final && k.q2 == t.Final {
			return false
		}
		for _, tr1 := range t.Adj[k.q1] {
			if tr1.Kind != KChar {
				continue
			}
			for _, tr2 := range t.Adj[k.q2] {
				if tr2.Kind != KChar {
					continue
				}
				if tr1.Class.Intersect(tr2.Class).IsEmpty() {
					continue
				}
				pushPairs(tr1.To, tr2.To, k.flag)
			}
		}
	}
	return true
}

type errUnknownVar string

func (e errUnknownVar) Error() string { return "vsa: unknown variable " + string(e) }
