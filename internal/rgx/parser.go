package rgx

import (
	"fmt"

	"spanjoin/internal/alphabet"
)

// ParseError is a positioned syntax error.
type ParseError struct {
	Pos     int // byte offset into the pattern
	Pattern string
	Msg     string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("rgx: parse error at offset %d in %q: %s", e.Pos, e.Pattern, e.Msg)
}

// Parse parses a regex-formula pattern (see the package documentation for
// the syntax) into a Formula. Parse does not require functionality; use
// CheckFunctional or Compile for that.
func Parse(pattern string) (*Formula, error) {
	p := &parser{src: pattern}
	n, err := p.alt()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.src) {
		return nil, p.errf("unexpected %q", p.src[p.pos])
	}
	f := NewFormula(n)
	f.Pattern = pattern
	return f, nil
}

// MustParse is Parse for statically known patterns; it panics on error.
func MustParse(pattern string) *Formula {
	f, err := Parse(pattern)
	if err != nil {
		panic(err)
	}
	return f
}

type parser struct {
	src string
	pos int
	// plainTo ends the last word run scanned that no '{' follows: its
	// bytes are literals, so the run is scanned once, not once per byte.
	plainTo int
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Pos: p.pos, Pattern: p.src, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) eof() bool  { return p.pos >= len(p.src) }
func (p *parser) peek() byte { return p.src[p.pos] }
func (p *parser) next() byte { b := p.src[p.pos]; p.pos++; return b }
func (p *parser) accept(b byte) bool {
	if !p.eof() && p.peek() == b {
		p.pos++
		return true
	}
	return false
}

// alt := concat ('|' concat)*
func (p *parser) alt() (Node, error) {
	first, err := p.concat()
	if err != nil {
		return nil, err
	}
	subs := []Node{first}
	for p.accept('|') {
		n, err := p.concat()
		if err != nil {
			return nil, err
		}
		subs = append(subs, n)
	}
	if len(subs) == 1 {
		return first, nil
	}
	return Alt{Subs: subs}, nil
}

// concat := repeat* ; an empty concatenation is ε.
func (p *parser) concat() (Node, error) {
	var subs []Node
	for !p.eof() {
		switch p.peek() {
		case '|', ')', '}':
			goto done
		}
		n, err := p.repeat()
		if err != nil {
			return nil, err
		}
		subs = append(subs, n)
	}
done:
	switch len(subs) {
	case 0:
		return Epsilon{}, nil
	case 1:
		return subs[0], nil
	}
	return Concat{Subs: subs}, nil
}

// repeat := atom ('*' | '+' | '?')*
func (p *parser) repeat() (Node, error) {
	n, err := p.atom()
	if err != nil {
		return nil, err
	}
	for !p.eof() {
		switch p.peek() {
		case '*':
			p.pos++
			n = Star{Sub: n}
		case '+':
			p.pos++
			n = Plus{Sub: n}
		case '?':
			p.pos++
			n = Opt{Sub: n}
		default:
			return n, nil
		}
	}
	return n, nil
}

func (p *parser) atom() (Node, error) {
	if p.eof() {
		return nil, p.errf("unexpected end of pattern")
	}
	switch b := p.peek(); b {
	case '(':
		p.pos++
		if p.accept(')') {
			return Epsilon{}, nil
		}
		n, err := p.alt()
		if err != nil {
			return nil, err
		}
		if !p.accept(')') {
			return nil, p.errf("missing )")
		}
		return n, nil
	case '.':
		p.pos++
		return Class{C: alphabet.Any()}, nil
	case '[':
		return p.class()
	case '\\':
		p.pos++
		c, err := p.escape(false)
		if err != nil {
			return nil, err
		}
		return Class{C: c}, nil
	case '*', '+', '?':
		return nil, p.errf("nothing to repeat before %q", b)
	case '{':
		return nil, p.errf("'{' must follow a variable name or be escaped")
	case '}':
		return nil, p.errf("unmatched '}' (escape literal braces)")
	default:
		// A maximal run of word characters directly followed by '{' is a
		// capture variable; otherwise consume a single literal byte.
		if isWordByte(b) && p.pos >= p.plainTo {
			end := p.pos
			for end < len(p.src) && isWordByte(p.src[end]) {
				end++
			}
			p.plainTo = end
			if end < len(p.src) && p.src[end] == '{' {
				name := p.src[p.pos:end]
				if name[0] >= '0' && name[0] <= '9' {
					return nil, p.errf("invalid variable name %q (must not start with a digit)", name)
				}
				p.pos = end + 1 // past '{'
				sub, err := p.alt()
				if err != nil {
					return nil, err
				}
				if !p.accept('}') {
					return nil, p.errf("missing } closing capture %s{", name)
				}
				return Capture{Var: name, Sub: sub}, nil
			}
		}
		p.pos++
		return Class{C: alphabet.Single(b)}, nil
	}
}

// class := '[' '^'? item* ']' ; item := byte | escape | byte '-' byte.
// "[]" is the empty class ∅ and "[^]" is Σ.
func (p *parser) class() (Node, error) {
	p.pos++ // consume '['
	negate := p.accept('^')
	c := alphabet.Empty()
	for {
		if p.eof() {
			return nil, p.errf("missing ] closing class")
		}
		if p.accept(']') {
			if negate {
				c = c.Negate()
			}
			return Class{C: c}, nil
		}
		lo, isClass, cls, err := p.classItem()
		if err != nil {
			return nil, err
		}
		if isClass {
			c = c.Union(cls)
			continue
		}
		if !p.eof() && p.peek() == '-' && p.pos+1 < len(p.src) && p.src[p.pos+1] != ']' {
			p.pos++ // consume '-'
			hi, isClass2, _, err := p.classItem()
			if err != nil {
				return nil, err
			}
			if isClass2 {
				return nil, p.errf("invalid range endpoint")
			}
			if hi < lo {
				return nil, p.errf("invalid range %q-%q", lo, hi)
			}
			c = c.Union(alphabet.Range(lo, hi))
			continue
		}
		c.Add(lo)
	}
}

// classItem parses a single byte or escape inside a class. isClass is true
// when the escape denotes a multi-byte class (\d, \w, \s and negations).
func (p *parser) classItem() (b byte, isClass bool, cls alphabet.Class, err error) {
	ch := p.next()
	if ch != '\\' {
		return ch, false, alphabet.Class{}, nil
	}
	cls, err = p.escape(true)
	if err != nil {
		return 0, false, alphabet.Class{}, err
	}
	if cls.Len() == 1 {
		m, _ := cls.Min()
		return m, false, alphabet.Class{}, nil
	}
	return 0, true, cls, nil
}

// escape parses the character after a backslash.
func (p *parser) escape(inClass bool) (alphabet.Class, error) {
	if p.eof() {
		return alphabet.Class{}, p.errf("trailing backslash")
	}
	switch b := p.next(); b {
	case 'n':
		return alphabet.Single('\n'), nil
	case 't':
		return alphabet.Single('\t'), nil
	case 'r':
		return alphabet.Single('\r'), nil
	case 'f':
		return alphabet.Single('\f'), nil
	case 'v':
		return alphabet.Single('\v'), nil
	case 'd':
		return alphabet.Digit(), nil
	case 'D':
		return alphabet.Digit().Negate(), nil
	case 'w':
		return alphabet.Word(), nil
	case 'W':
		return alphabet.Word().Negate(), nil
	case 's':
		return alphabet.Space(), nil
	case 'S':
		return alphabet.Space().Negate(), nil
	case 'x':
		if p.pos+2 > len(p.src) {
			return alphabet.Class{}, p.errf("truncated \\x escape")
		}
		hi, ok1 := hexVal(p.src[p.pos])
		lo, ok2 := hexVal(p.src[p.pos+1])
		if !ok1 || !ok2 {
			return alphabet.Class{}, p.errf("invalid \\x escape")
		}
		p.pos += 2
		return alphabet.Single(hi<<4 | lo), nil
	default:
		return alphabet.Single(b), nil
	}
}

func hexVal(b byte) (byte, bool) {
	switch {
	case b >= '0' && b <= '9':
		return b - '0', true
	case b >= 'a' && b <= 'f':
		return b - 'a' + 10, true
	case b >= 'A' && b <= 'F':
		return b - 'A' + 10, true
	}
	return 0, false
}

func isWordByte(b byte) bool {
	return b == '_' || b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
}
