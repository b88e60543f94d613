// Package rgx implements regex formulas (paper §2.2.2): regular expressions
// over Σ extended with capture variables x{α}, together with a parser, the
// functionality test (Thm 2.4), and the linear-time compilation to
// functional vset-automata (Lemma 3.4).
//
// # Pattern syntax
//
// The concrete syntax follows the paper with ASCII conveniences:
//
//	a          literal byte
//	.          any byte (the paper's Σ)
//	[abc] [a-z] [^...]   byte classes; [] is the empty class ∅
//	\d \w \s \n \t \r \xHH    escapes and predefined classes
//	αβ         concatenation
//	α|β        alternation; an empty branch is ε (e.g. "a|")
//	α* α+ α?   repetition
//	(α)        grouping
//	x{α}       capture variable x (paper: x{α}); the variable name is the
//	           maximal run of word characters immediately before '{'.
//	           A literal '{' or '}' must be escaped: \{ \}.
//
// Following the paper, formulas are functional by convention: Parse accepts
// any syntactically well-formed formula, while Compile and the query layer
// require functionality and report a typed error otherwise.
package rgx

import (
	"fmt"
	"sort"
	"strings"

	"spanjoin/internal/alphabet"
	"spanjoin/internal/span"
)

// Node is a node of the regex-formula AST.
type Node interface {
	// String renders the node back into pattern syntax.
	String() string
	precedence() int
}

// Empty is the formula ∅ (empty language).
type Empty struct{}

// Epsilon is the formula ε (empty string).
type Epsilon struct{}

// Class is a literal byte class (a single σ ∈ Σ, a set, or Σ itself).
type Class struct {
	C alphabet.Class
}

// Concat is the concatenation α·β with two or more factors.
type Concat struct {
	Subs []Node
}

// Alt is the alternation α ∨ β with two or more branches.
type Alt struct {
	Subs []Node
}

// Star is the Kleene closure α*.
type Star struct {
	Sub Node
}

// Plus is α+ ≡ α·α*. It is kept as a node (not desugared) so patterns
// round-trip through String.
type Plus struct {
	Sub Node
}

// Opt is α? ≡ α ∨ ε.
type Opt struct {
	Sub Node
}

// Capture is the variable binding x{α}.
type Capture struct {
	Var string
	Sub Node
}

func (Empty) precedence() int   { return 4 }
func (Epsilon) precedence() int { return 4 }
func (Class) precedence() int   { return 4 }
func (Capture) precedence() int { return 4 }
func (Star) precedence() int    { return 3 }
func (Plus) precedence() int    { return 3 }
func (Opt) precedence() int     { return 3 }
func (Concat) precedence() int  { return 2 }
func (Alt) precedence() int     { return 1 }

func paren(child Node, min int) string {
	s := child.String()
	if child.precedence() < min {
		return "(" + s + ")"
	}
	return s
}

func (Empty) String() string   { return "[]" }
func (Epsilon) String() string { return "()" }
func (n Class) String() string { return n.C.String() }
func (n Concat) String() string {
	var sb strings.Builder
	for _, s := range n.Subs {
		sb.WriteString(paren(s, 2))
	}
	return sb.String()
}
func (n Alt) String() string {
	parts := make([]string, len(n.Subs))
	for i, s := range n.Subs {
		if _, ok := s.(Epsilon); ok {
			parts[i] = ""
			continue
		}
		parts[i] = paren(s, 2)
	}
	return strings.Join(parts, "|")
}
func (n Star) String() string    { return paren(n.Sub, 4) + "*" }
func (n Plus) String() string    { return paren(n.Sub, 4) + "+" }
func (n Opt) String() string     { return paren(n.Sub, 4) + "?" }
func (n Capture) String() string { return n.Var + "{" + n.Sub.String() + "}" }

// Formula is a parsed regex formula with its variable set.
type Formula struct {
	Root Node
	// Vars is the sorted set Vars(α) of capture variables occurring in Root.
	Vars span.VarList
	// Pattern is the source text when the formula came from Parse.
	Pattern string
}

// String returns the pattern syntax of the formula.
func (f *Formula) String() string { return f.Root.String() }

// Size returns the number of AST nodes, the |α| of the paper's bounds.
func (f *Formula) Size() int { return nodeSize(f.Root) }

func nodeSize(n Node) int {
	switch t := n.(type) {
	case Concat:
		s := 1
		for _, c := range t.Subs {
			s += nodeSize(c)
		}
		return s
	case Alt:
		s := 1
		for _, c := range t.Subs {
			s += nodeSize(c)
		}
		return s
	case Star:
		return 1 + nodeSize(t.Sub)
	case Plus:
		return 1 + nodeSize(t.Sub)
	case Opt:
		return 1 + nodeSize(t.Sub)
	case Capture:
		return 1 + nodeSize(t.Sub)
	default:
		return 1
	}
}

// NewFormula wraps an AST into a Formula, computing its variable set.
func NewFormula(root Node) *Formula {
	vars := map[string]bool{}
	collectVars(root, vars)
	names := make([]string, 0, len(vars))
	for v := range vars {
		names = append(names, v)
	}
	sort.Strings(names)
	return &Formula{Root: root, Vars: span.VarList(names)}
}

func collectVars(n Node, out map[string]bool) {
	switch t := n.(type) {
	case Concat:
		for _, c := range t.Subs {
			collectVars(c, out)
		}
	case Alt:
		for _, c := range t.Subs {
			collectVars(c, out)
		}
	case Star:
		collectVars(t.Sub, out)
	case Plus:
		collectVars(t.Sub, out)
	case Opt:
		collectVars(t.Sub, out)
	case Capture:
		out[t.Var] = true
		collectVars(t.Sub, out)
	}
}

// FunctionalityError explains why a formula is not functional.
type FunctionalityError struct {
	Reason string
}

func (e *FunctionalityError) Error() string { return "rgx: formula not functional: " + e.Reason }

// CheckFunctional verifies that the formula is functional (every ref-word of
// R(α) is valid, Thm 2.4): bottom-up,
//
//   - concatenation factors must bind disjoint variable sets,
//   - alternation branches must bind identical variable sets,
//   - starred/optional/plus subformulas must bind no variables
//     (α? and α+ with variables can generate zero or two bindings),
//   - a capture x{β} requires x ∉ Vars(β).
//
// It returns nil iff the formula is functional.
//
// ∅-subformulas are simplified away first (they generate no ref-words), so
// e.g. ∅ ∨ x{a} is functional while x{a} ∨ y{a} is not; a variable occurring
// only inside a dead ∅-branch of a non-empty formula makes it non-functional
// (no ref-word can bind it).
func (f *Formula) CheckFunctional() error {
	return f.checkSimplified(SimplifyEmpty(f.Root))
}

// checkSimplified is CheckFunctional on root, the formula's root after
// SimplifyEmpty, so that Compile simplifies once for both steps.
func (f *Formula) checkSimplified(root Node) error {
	if isEmptyNode(root) {
		return nil // R(α) = ∅: vacuously functional
	}
	// A functional root binds every variable occurring in it.
	live, err := checkFunc(root)
	if err != nil {
		return err
	}
	if !live.Equal(f.Vars) {
		return &FunctionalityError{
			Reason: fmt.Sprintf("variables %v occur only inside ∅-subformulas", f.Vars.Minus(live)),
		}
	}
	return nil
}

func checkFunc(n Node) (span.VarList, error) {
	switch t := n.(type) {
	case Empty, Epsilon, Class:
		return nil, nil
	case Concat:
		var all span.VarList
		for _, c := range t.Subs {
			vs, err := checkFunc(c)
			if err != nil {
				return nil, err
			}
			if inter := all.Intersect(vs); len(inter) > 0 {
				return nil, &FunctionalityError{
					Reason: fmt.Sprintf("variable %s bound more than once in a concatenation", inter[0]),
				}
			}
			all = all.Union(vs)
		}
		return all, nil
	case Alt:
		var first span.VarList
		for i, c := range t.Subs {
			vs, err := checkFunc(c)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				first = vs
			} else if !first.Equal(vs) {
				return nil, &FunctionalityError{
					Reason: fmt.Sprintf("alternation branches bind different variables: %v vs %v", first, vs),
				}
			}
		}
		return first, nil
	case Star:
		vs, err := checkFunc(t.Sub)
		if err != nil {
			return nil, err
		}
		if len(vs) > 0 {
			return nil, &FunctionalityError{
				Reason: fmt.Sprintf("variable %s bound under *", vs[0]),
			}
		}
		return nil, nil
	case Plus:
		vs, err := checkFunc(t.Sub)
		if err != nil {
			return nil, err
		}
		if len(vs) > 0 {
			return nil, &FunctionalityError{
				Reason: fmt.Sprintf("variable %s bound under +", vs[0]),
			}
		}
		return nil, nil
	case Opt:
		vs, err := checkFunc(t.Sub)
		if err != nil {
			return nil, err
		}
		if len(vs) > 0 {
			return nil, &FunctionalityError{
				Reason: fmt.Sprintf("variable %s bound under ?", vs[0]),
			}
		}
		return nil, nil
	case Capture:
		vs, err := checkFunc(t.Sub)
		if err != nil {
			return nil, err
		}
		if vs.Contains(t.Var) {
			return nil, &FunctionalityError{
				Reason: fmt.Sprintf("variable %s nested inside its own binding", t.Var),
			}
		}
		return vs.Union(span.NewVarList(t.Var)), nil
	}
	return nil, fmt.Errorf("rgx: unknown node %T", n)
}
