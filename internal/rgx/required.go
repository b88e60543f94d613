package rgx

import "spanjoin/internal/prefilter"

func isEpsilonNode(n Node) bool {
	_, ok := n.(Epsilon)
	return ok
}

// RequiredLiterals computes the full conservative requirement set of the
// formula: every returned literal occurs in clr(r) for every r ∈ R(α), so a
// document missing any one of them cannot match. Evaluators use it to skip
// documents that cannot match at all — a lightweight version of the
// filtering direction the paper's conclusion points to (Yang et al.'s
// negative factors). It surfaces every mandatory run of a concatenation
// (e.g. `x{ERROR}.*y{op=}` requires both "ERROR" and "op="), which
// composition layers combine into multi-literal prefilters. The list is
// raw — callers normalize (dedupe, drop subsumed factors; prefilter.New).
func RequiredLiterals(n Node) []string {
	_, req := analyzeAll(n)
	return req
}

// analyzeAll is the set-valued analogue of analyze: exact has the same
// semantics; req is a set of literals each guaranteed to occur in every
// word of the node's language.
func analyzeAll(n Node) (exact string, req []string) {
	switch t := n.(type) {
	case Empty, Epsilon:
		return "", nil
	case Class:
		if t.C.Len() == 1 {
			b, _ := t.C.Min()
			s := string(b)
			return s, []string{s}
		}
		return "", nil
	case Concat:
		// The current mandatory literal run, grown in place: a run of n
		// single-byte children costs O(n), not the O(n²) of string +=.
		var run []byte
		allExact := true
		for _, c := range t.Subs {
			ex, sub := analyzeAll(c)
			if ex != "" || isEpsilonNode(c) {
				// Exact children extend the run; their own requirement set is
				// subsumed by the run (it contains the child verbatim).
				run = append(run, ex...)
				continue
			}
			allExact = false
			if len(run) > 0 {
				req = append(req, string(run))
				run = run[:0]
			}
			// A non-exact child still contributes its mandatory factors:
			// every word threads through it.
			req = append(req, sub...)
		}
		if len(run) == 0 {
			return "", req
		}
		// An all-exact concatenation never flushed its run: the run is the
		// whole concatenation's exact string.
		lit := string(run)
		req = append(req, lit)
		if allExact {
			return lit, req
		}
		return "", req
	case Alt:
		// A literal is required by the alternation iff every branch implies
		// it: each branch's set has a factor containing it. Maximal common
		// substrings of branch factors qualify too ((abc|abd) requires "ab").
		exacts := make([]string, len(t.Subs))
		sets := make([][]string, len(t.Subs))
		for i, c := range t.Subs {
			exacts[i], sets[i] = analyzeAll(c)
		}
		req = prefilter.CommonFactors(sets)
		sameExact := exacts[0] != ""
		for i := 1; i < len(exacts); i++ {
			if exacts[i] != exacts[0] {
				sameExact = false
			}
		}
		if sameExact {
			return exacts[0], req
		}
		return "", req
	case Star, Opt:
		return "", nil
	case Plus:
		// At least one iteration of the body occurs.
		_, req = analyzeAll(t.Sub)
		return "", req
	case Capture:
		return analyzeAll(t.Sub)
	}
	return "", nil
}
