package rel

import (
	"math/rand"
	"testing"

	"spanjoin/internal/span"
)

func sp(a, b int) span.Span { return span.Span{Start: a, End: b} }

func TestRelationAddDedup(t *testing.T) {
	r := NewRelation(span.NewVarList("x"))
	if !r.Add(span.Tuple{sp(1, 2)}) {
		t.Error("first Add should report new")
	}
	if r.Add(span.Tuple{sp(1, 2)}) {
		t.Error("duplicate Add should report false")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	if !r.Contains(span.Tuple{sp(1, 2)}) || r.Contains(span.Tuple{sp(1, 3)}) {
		t.Error("Contains wrong")
	}
}

func TestRelationAddArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch must panic")
		}
	}()
	NewRelation(span.NewVarList("x")).Add(span.Tuple{sp(1, 1), sp(2, 2)})
}

func TestProject(t *testing.T) {
	r := FromTuples(span.NewVarList("x", "y"), []span.Tuple{
		{sp(1, 2), sp(3, 4)},
		{sp(1, 2), sp(5, 6)},
		{sp(7, 8), sp(3, 4)},
	})
	p := r.Project(span.NewVarList("x"))
	if p.Len() != 2 {
		t.Errorf("projection has %d tuples, want 2 (dedup)", p.Len())
	}
	all := r.Project(span.NewVarList("y", "x"))
	if all.Len() != 3 {
		t.Errorf("identity projection lost tuples: %d", all.Len())
	}
	empty := r.Project(nil)
	if empty.Len() != 1 || len(empty.Vars) != 0 {
		t.Errorf("Boolean projection: len=%d vars=%v", empty.Len(), empty.Vars)
	}
}

func TestUnionSchemaCheck(t *testing.T) {
	a := NewRelation(span.NewVarList("x"))
	b := NewRelation(span.NewVarList("y"))
	if _, err := a.Union(b); err == nil {
		t.Error("union with different schemas must fail")
	}
	c := FromTuples(span.NewVarList("x"), []span.Tuple{{sp(1, 1)}})
	d := FromTuples(span.NewVarList("x"), []span.Tuple{{sp(1, 1)}, {sp(2, 2)}})
	u, err := c.Union(d)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 2 {
		t.Errorf("union len = %d, want 2", u.Len())
	}
}

func TestJoinSharedVariable(t *testing.T) {
	// R(x,y) ⋈ S(y,z)
	r := FromTuples(span.NewVarList("x", "y"), []span.Tuple{
		{sp(1, 2), sp(2, 3)},
		{sp(1, 2), sp(3, 4)},
	})
	s := FromTuples(span.NewVarList("y", "z"), []span.Tuple{
		{sp(2, 3), sp(5, 6)},
		{sp(2, 3), sp(6, 7)},
		{sp(9, 9), sp(5, 6)},
	})
	j := Join(r, s)
	if !j.Vars.Equal(span.NewVarList("x", "y", "z")) {
		t.Fatalf("join vars %v", j.Vars)
	}
	if j.Len() != 2 {
		t.Fatalf("join has %d tuples, want 2:\n%s", j.Len(), j)
	}
	for _, tu := range j.Tuples {
		if tu[j.Vars.Index("y")] != sp(2, 3) {
			t.Errorf("join leaked non-matching tuple %v", tu)
		}
	}
}

func TestJoinDisjointIsCrossProduct(t *testing.T) {
	r := FromTuples(span.NewVarList("x"), []span.Tuple{{sp(1, 1)}, {sp(2, 2)}})
	s := FromTuples(span.NewVarList("y"), []span.Tuple{{sp(3, 3)}, {sp(4, 4)}, {sp(5, 5)}})
	j := Join(r, s)
	if j.Len() != 6 {
		t.Errorf("cross product has %d tuples, want 6", j.Len())
	}
}

func TestJoinWithBooleanRelation(t *testing.T) {
	r := FromTuples(span.NewVarList("x"), []span.Tuple{{sp(1, 1)}})
	truthy := FromTuples(nil, []span.Tuple{{}})
	falsy := NewRelation(nil)
	if j := Join(r, truthy); j.Len() != 1 {
		t.Errorf("join with TRUE: %d", j.Len())
	}
	if j := Join(r, falsy); j.Len() != 0 {
		t.Errorf("join with FALSE: %d", j.Len())
	}
}

func TestSemiJoin(t *testing.T) {
	r := FromTuples(span.NewVarList("x", "y"), []span.Tuple{
		{sp(1, 1), sp(2, 2)},
		{sp(3, 3), sp(4, 4)},
	})
	s := FromTuples(span.NewVarList("y", "z"), []span.Tuple{
		{sp(2, 2), sp(9, 9)},
	})
	sj := SemiJoin(r, s)
	if sj.Len() != 1 || sj.Tuples[0][0] != sp(1, 1) {
		t.Errorf("semijoin wrong: %v", sj)
	}
	if !sj.Vars.Equal(r.Vars) {
		t.Errorf("semijoin changed schema: %v", sj.Vars)
	}
}

func TestJoinAgainstNestedLoop(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		v1 := span.NewVarList("x", "y")
		v2 := span.NewVarList("y", "z")
		a := NewRelation(v1)
		b := NewRelation(v2)
		for i := 0; i < r.Intn(20); i++ {
			a.Add(span.Tuple{sp(r.Intn(3)+1, 4), sp(r.Intn(3)+1, 4)})
		}
		for i := 0; i < r.Intn(20); i++ {
			b.Add(span.Tuple{sp(r.Intn(3)+1, 4), sp(r.Intn(3)+1, 4)})
		}
		got := Join(a, b)
		// Nested-loop reference.
		want := 0
		for _, ta := range a.Tuples {
			for _, tb := range b.Tuples {
				if ta[1] == tb[0] {
					want++
				}
			}
		}
		if got.Len() != want {
			t.Fatalf("join size %d, nested loop says %d", got.Len(), want)
		}
	}
}

func TestSortDeterministic(t *testing.T) {
	r := FromTuples(span.NewVarList("x"), []span.Tuple{{sp(3, 3)}, {sp(1, 1)}, {sp(2, 2)}})
	r.Sort()
	for i := 0; i+1 < len(r.Tuples); i++ {
		if r.Tuples[i].Compare(r.Tuples[i+1]) >= 0 {
			t.Fatalf("not sorted at %d", i)
		}
	}
}
