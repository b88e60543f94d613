// Package rel is the relational engine behind the paper's "canonical
// relational evaluation" (§3.2–3.3): span relations with projection, natural
// join and union, plus hypergraph acyclicity tests (GYO for alpha-acyclicity,
// gamma-cycle detection for gamma-acyclicity) and Yannakakis' algorithm over
// join trees.
package rel

import (
	"fmt"
	"sort"
	"strings"

	"spanjoin/internal/span"
)

// Relation is a set of (V,s)-tuples over a fixed variable list. Tuples are
// kept duplicate free; column k holds the span of Vars[k].
type Relation struct {
	Vars   span.VarList
	Tuples []span.Tuple

	index map[string]bool // tuple key → present
}

// NewRelation returns an empty relation over vars.
func NewRelation(vars span.VarList) *Relation {
	return &Relation{Vars: vars, index: map[string]bool{}}
}

// FromTuples builds a relation, deduplicating the given tuples.
func FromTuples(vars span.VarList, tuples []span.Tuple) *Relation {
	r := NewRelation(vars)
	for _, t := range tuples {
		r.Add(t)
	}
	return r
}

// Add inserts a tuple if not already present and reports whether it was new.
// The tuple must have exactly len(Vars) columns.
func (r *Relation) Add(t span.Tuple) bool {
	if len(t) != len(r.Vars) {
		panic(fmt.Sprintf("rel: tuple arity %d != |vars| %d", len(t), len(r.Vars)))
	}
	if r.index == nil {
		r.index = map[string]bool{}
		for _, u := range r.Tuples {
			r.index[u.Key()] = true
		}
	}
	k := t.Key()
	if r.index[k] {
		return false
	}
	r.index[k] = true
	r.Tuples = append(r.Tuples, t.Clone())
	return true
}

// Contains reports membership.
func (r *Relation) Contains(t span.Tuple) bool {
	if r.index == nil {
		r.index = map[string]bool{}
		for _, u := range r.Tuples {
			r.index[u.Key()] = true
		}
	}
	return r.index[t.Key()]
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// IsEmpty reports whether the relation has no tuples.
func (r *Relation) IsEmpty() bool { return len(r.Tuples) == 0 }

// Clone deep-copies the relation.
func (r *Relation) Clone() *Relation {
	out := NewRelation(r.Vars)
	for _, t := range r.Tuples {
		out.Add(t)
	}
	return out
}

// Sort orders tuples by span.Tuple.Compare (deterministic output order).
func (r *Relation) Sort() {
	sort.Slice(r.Tuples, func(i, j int) bool { return r.Tuples[i].Compare(r.Tuples[j]) < 0 })
}

// Project computes π_keep(r), deduplicating.
func (r *Relation) Project(keep span.VarList) *Relation {
	kept := r.Vars.Intersect(keep)
	idx := make([]int, len(kept))
	for i, v := range kept {
		idx[i] = r.Vars.Index(v)
	}
	out := NewRelation(kept)
	for _, t := range r.Tuples {
		p := make(span.Tuple, len(kept))
		for i, k := range idx {
			p[i] = t[k]
		}
		out.Add(p)
	}
	return out
}

// Union computes r ∪ o; both must have identical variable lists.
func (r *Relation) Union(o *Relation) (*Relation, error) {
	if !r.Vars.Equal(o.Vars) {
		return nil, fmt.Errorf("rel: union requires identical schemas, got %v and %v", r.Vars, o.Vars)
	}
	out := r.Clone()
	for _, t := range o.Tuples {
		out.Add(t)
	}
	return out, nil
}

// Join computes the natural join r ⋈ o with a hash join on the shared
// variables.
func Join(r, o *Relation) *Relation {
	shared := r.Vars.Intersect(o.Vars)
	joint := r.Vars.Union(o.Vars)
	out := NewRelation(joint)

	// Build on the smaller side.
	build, probe := r, o
	if o.Len() < r.Len() {
		build, probe = o, r
	}
	bIdx := make([]int, len(shared))
	pIdx := make([]int, len(shared))
	for i, v := range shared {
		bIdx[i] = build.Vars.Index(v)
		pIdx[i] = probe.Vars.Index(v)
	}
	ht := make(map[string][]span.Tuple)
	for _, t := range build.Tuples {
		k := sharedKey(t, bIdx)
		ht[k] = append(ht[k], t)
	}
	jointFromBuild := make([]int, len(joint))
	jointFromProbe := make([]int, len(joint))
	for i, v := range joint {
		jointFromBuild[i] = build.Vars.Index(v)
		jointFromProbe[i] = probe.Vars.Index(v)
	}
	for _, pt := range probe.Tuples {
		for _, bt := range ht[sharedKey(pt, pIdx)] {
			tu := make(span.Tuple, len(joint))
			for i := range joint {
				if k := jointFromProbe[i]; k >= 0 {
					tu[i] = pt[k]
				} else {
					tu[i] = bt[jointFromBuild[i]]
				}
			}
			out.Add(tu)
		}
	}
	return out
}

// SemiJoin reduces r to the tuples that join with at least one tuple of o
// (r ⋉ o). It returns a new relation over r's schema.
func SemiJoin(r, o *Relation) *Relation {
	shared := r.Vars.Intersect(o.Vars)
	rIdx := make([]int, len(shared))
	oIdx := make([]int, len(shared))
	for i, v := range shared {
		rIdx[i] = r.Vars.Index(v)
		oIdx[i] = o.Vars.Index(v)
	}
	keys := make(map[string]bool, o.Len())
	for _, t := range o.Tuples {
		keys[sharedKey(t, oIdx)] = true
	}
	out := NewRelation(r.Vars)
	for _, t := range r.Tuples {
		if keys[sharedKey(t, rIdx)] {
			out.Add(t)
		}
	}
	return out
}

func sharedKey(t span.Tuple, idx []int) string {
	var sb strings.Builder
	for _, k := range idx {
		fmt.Fprintf(&sb, "%d,%d;", t[k].Start, t[k].End)
	}
	return sb.String()
}

// String renders the relation for debugging.
func (r *Relation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v (%d tuples)\n", r.Vars, r.Len())
	for _, t := range r.Tuples {
		sb.WriteString("  " + t.Format(r.Vars) + "\n")
	}
	return sb.String()
}
