// Package ctxthread enforces the engine's deadline-threading contract:
// exported evaluation entry points — functions whose name starts with
// Eval, Count, Sample or Page and that take a document, pattern or
// corpus — must be cancellable themselves. They accept a
// context.Context, or an options value that carries a deadline (a struct
// with a Deadline/Timeout field, or functional options over such a
// struct). A cancellable *Ctx sibling does not excuse an uncancellable
// entry point: every caller of the non-ctx half loses its deadline, so
// the serving surface keeps only the cancellable form. The rule applies
// to the serving surface (the root package, server, client and the
// corpus fan-out layer), where an uncancellable evaluation can wedge a
// request goroutine forever.
package ctxthread

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"spanjoin/internal/analysis"
)

// Scope matches the import paths whose exported entry points must be
// cancellable — the layers that serve traffic. Variable so tests can
// point it at fixture packages.
var Scope = regexp.MustCompile(`^spanjoin(/server|/client|/internal/corpus)?$`)

var entryPrefix = regexp.MustCompile(`^(Eval|Count|Sample|Page)`)

var Analyzer = &analysis.Analyzer{
	Name: "ctxthread",
	Doc: "evaluation entry points must thread contexts or deadlines\n\n" +
		"Exported Eval*/Count*/Sample*/Page* functions on the serving surface " +
		"must accept a context.Context or a deadline-carrying options value.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !Scope.MatchString(strings.TrimSuffix(pass.ImportPath, " [xtest]")) {
		return nil
	}
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				checkDecl(pass, fd)
			}
		}
	}
	return nil
}

// checkDecl applies the rule to one function declaration.
func checkDecl(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	if !fd.Name.IsExported() || !entryPrefix.MatchString(name) {
		return
	}
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sig := obj.Type().(*types.Signature)
	if !evaluatesInput(sig) {
		// Nothing corpus- or document-shaped flows in: ranked views,
		// String()-style accessors. Not an evaluation entry point.
		return
	}
	if sigCancellable(sig) {
		return
	}
	pass.Reportf(fd.Name.Pos(),
		"exported evaluation entry point %s is not cancellable: add a context.Context parameter or deadline-carrying options (...Option)",
		name)
}

// evaluatesInput reports whether the signature takes a document/pattern
// (string or []string) or hangs off the corpus layer — the shapes whose
// evaluation cost is input-dependent and therefore must be boundable.
func evaluatesInput(sig *types.Signature) bool {
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			switch named.Obj().Name() {
			case "Corpus", "Store":
				return true
			}
		}
	}
	for i := 0; i < sig.Params().Len(); i++ {
		switch t := sig.Params().At(i).Type().Underlying().(type) {
		case *types.Basic:
			if t.Kind() == types.String {
				return true
			}
		case *types.Slice:
			if b, ok := t.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.String {
				return true
			}
		}
	}
	return false
}

// sigCancellable reports whether the signature carries a context or a
// deadline-capable options value.
func sigCancellable(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if sig.Variadic() && i == sig.Params().Len()-1 {
			if s, ok := t.Underlying().(*types.Slice); ok {
				t = s.Elem()
			}
		}
		if isContext(t) || carriesDeadline(t) {
			return true
		}
	}
	return false
}

func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// carriesDeadline recognizes deadline-capable option shapes: a struct
// (or pointer to one) with a Deadline or Timeout field, or a functional
// option func(*S) over such a struct.
func carriesDeadline(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		return hasDeadlineField(u)
	case *types.Pointer:
		if s, ok := u.Elem().Underlying().(*types.Struct); ok {
			return hasDeadlineField(s)
		}
	case *types.Signature:
		if u.Params().Len() == 1 {
			if p, ok := u.Params().At(0).Type().Underlying().(*types.Pointer); ok {
				if s, ok := p.Elem().Underlying().(*types.Struct); ok {
					return hasDeadlineField(s)
				}
			}
		}
	}
	return false
}

func hasDeadlineField(s *types.Struct) bool {
	for i := 0; i < s.NumFields(); i++ {
		switch s.Field(i).Name() {
		case "Deadline", "Timeout":
			return true
		}
	}
	return false
}
