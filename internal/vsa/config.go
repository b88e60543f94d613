package vsa

import (
	"errors"
	"fmt"
)

// VarState is the per-variable state in a variable configuration (paper
// §4.1): waiting (not yet opened), open, or closed. The numeric values fix
// the total order w < o < c used by the enumeration algorithm's radix order.
type VarState byte

const (
	// W means the variable has not been opened yet.
	W VarState = 0
	// O means the variable is open but not closed.
	O VarState = 1
	// C means the variable has been opened and closed.
	C VarState = 2
)

func (v VarState) String() string {
	switch v {
	case W:
		return "w"
	case O:
		return "o"
	case C:
		return "c"
	}
	return fmt.Sprintf("VarState(%d)", byte(v))
}

// Config is a variable configuration ~c : V → {w, o, c}, aligned with the
// automaton's sorted variable list.
type Config []VarState

// Equal reports pointwise equality.
func (c Config) Equal(o Config) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// Compare orders configurations lexicographically with w < o < c.
func (c Config) Compare(o Config) int {
	for i := range c {
		if c[i] != o[i] {
			if c[i] < o[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Key returns a compact map key for the configuration.
func (c Config) Key() string { return string(configBytes(c)) }

func configBytes(c Config) []byte {
	b := make([]byte, len(c))
	for i, v := range c {
		b[i] = byte(v)
	}
	return b
}

// String renders e.g. "(w,o,c)".
func (c Config) String() string {
	out := "("
	for i, v := range c {
		if i > 0 {
			out += ","
		}
		out += v.String()
	}
	return out + ")"
}

// AllClosed reports whether every variable is closed.
func (c Config) AllClosed() bool {
	for _, v := range c {
		if v != C {
			return false
		}
	}
	return true
}

// ErrNotFunctional is returned by operations that require a functional
// vset-automaton when the input is not functional.
var ErrNotFunctional = errors.New("vsa: automaton is not functional")

// ConfigTable assigns each useful state its variable configuration. It is
// the witness of functionality: a trimmed vset-automaton admits a consistent
// table iff it is functional (paper Thm 2.7 / §4.1).
type ConfigTable struct {
	// Cfg[q] is the variable configuration of state q.
	Cfg []Config
}

// ConfigTableOf computes the variable configuration of every state of a
// *trimmed* automaton by breadth-first search in O(v·m + n) and verifies
// functionality along the way:
//
//   - an x⊢ transition requires the source configuration to have x = w,
//   - a ⊣x transition requires x = o,
//   - every state reached along two paths must get the same configuration,
//   - the final state's configuration must be all-closed.
//
// Any violation yields ErrNotFunctional (wrapped with a description). The
// configurations share one arena of n·v entries; states the search never
// reaches keep a nil configuration.
func (a *VSA) ConfigTableOf() (*ConfigTable, error) {
	n, v := len(a.Adj), len(a.Vars)
	cfg := make([]Config, n)
	if n == 0 {
		return &ConfigTable{Cfg: cfg}, nil
	}
	arena := make(Config, n*v) // all W; never nil, so neither are its slots
	slot := func(q int32) Config { return arena[int(q)*v : int(q+1)*v : int(q+1)*v] }
	next := make(Config, v) // the configuration a transition leads to
	cfg[a.Init] = slot(a.Init)
	queue := make([]int32, 1, n)
	queue[0] = a.Init
	for head := 0; head < len(queue); head++ {
		p := queue[head]
		for _, t := range a.Adj[p] {
			if err := applyOp(next, cfg[p], t); err != nil {
				return nil, err
			}
			if cfg[t.To] == nil {
				cfg[t.To] = slot(t.To)
				copy(cfg[t.To], next)
				queue = append(queue, t.To)
			} else if !cfg[t.To].Equal(next) {
				return nil, fmt.Errorf("%w: state %d is reachable with configurations %v and %v",
					ErrNotFunctional, t.To, cfg[t.To], next)
			}
		}
	}
	if cfg[a.Final] == nil {
		// Final unreachable: the language is empty; treat as functional with
		// a vacuous table (callers should trim first, which removes this).
		cfg[a.Final] = slot(a.Final)
		for i := range cfg[a.Final] {
			cfg[a.Final][i] = C
		}
	}
	if !cfg[a.Final].AllClosed() {
		return nil, fmt.Errorf("%w: final state has configuration %v (some variable never operated)",
			ErrNotFunctional, cfg[a.Final])
	}
	return &ConfigTable{Cfg: cfg}, nil
}

// applyOp writes into next the configuration transition t leads to from
// a state whose configuration is c, or reports that t may not leave it.
func applyOp(next, c Config, t Tr) error {
	copy(next, c)
	switch t.Kind {
	case KEps, KChar:
		return nil
	case KOpen:
		if c[t.Var] != W {
			return fmt.Errorf("%w: variable %d opened while %v", ErrNotFunctional, t.Var, c[t.Var])
		}
		next[t.Var] = O
		return nil
	case KClose:
		if c[t.Var] != O {
			return fmt.Errorf("%w: variable %d closed while %v", ErrNotFunctional, t.Var, c[t.Var])
		}
		next[t.Var] = C
		return nil
	}
	return fmt.Errorf("vsa: unknown transition kind %v", t.Kind)
}

// IsFunctional reports whether the automaton is functional: every accepting
// run generates a valid ref-word (Thm 2.7). The automaton is trimmed first,
// since states off all accepting paths cannot affect R(A).
func (a *VSA) IsFunctional() bool {
	_, err := a.Trim().ConfigTableOf()
	return err == nil
}

// RequireFunctional trims the automaton and returns the trimmed automaton
// with its configuration table, or ErrNotFunctional. Like Trim's, the
// returned automaton may be a itself: callers mutate neither.
func (a *VSA) RequireFunctional() (*VSA, *ConfigTable, error) {
	t := a.Trim()
	ct, err := t.ConfigTableOf()
	if err != nil {
		return nil, nil, err
	}
	return t, ct, nil
}
