// Package serving is the ctxthread fixture's in-scope serving surface
// (the test points ctxthread.Scope at it).
package serving

import "context"

// EvalDocs evaluates documents with no way to bound the work.
func EvalDocs(docs []string) int { // want "EvalDocs is not cancellable"
	total := 0
	for _, d := range docs {
		total += len(d)
	}
	return total
}

// EvalDoc is the uncancellable half of a sibling pair: its Ctx sibling
// does not excuse it.
func EvalDoc(doc string) int { return len(doc) } // want "EvalDoc is not cancellable"

// EvalDocCtx is the cancellable sibling of EvalDoc.
func EvalDocCtx(ctx context.Context, doc string) int {
	if ctx.Err() != nil {
		return 0
	}
	return len(doc)
}

// CountRunes threads a context directly.
func CountRunes(ctx context.Context, doc string) int {
	if ctx.Err() != nil {
		return 0
	}
	return len([]rune(doc))
}

// Options carries a deadline; Option is its functional form.
type Options struct{ Timeout int }

// Option mutates Options.
type Option func(*Options)

// SampleDocs is bounded through its options value.
func SampleDocs(docs []string, opts ...Option) int {
	o := Options{}
	for _, opt := range opts {
		opt(&o)
	}
	return len(docs) + o.Timeout
}

// PageInfo takes no document or corpus: not an evaluation entry point.
func PageInfo() string { return "page" }

// Corpus hangs evaluation methods off the store layer.
type Corpus struct{}

// Eval is flagged although EvalCtx is its sibling.
func (c *Corpus) Eval(doc string) int { return len(doc) } // want "Eval is not cancellable"

// EvalCtx is the cancellable sibling of Eval.
func (c *Corpus) EvalCtx(ctx context.Context, doc string) int {
	if ctx.Err() != nil {
		return 0
	}
	return len(doc)
}

// PageAll walks every stored document with no bound.
func (c *Corpus) PageAll() int { return 0 } // want "PageAll is not cancellable"
