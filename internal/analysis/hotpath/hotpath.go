// Package hotpath machine-checks the allocation discipline of the
// functions the paper's complexity claims rest on. The enumerator's
// preprocessing sweep and Next are the O(|s|)-preprocessing /
// O(1)-delay kernel; the bitset multiply is the constant factor under
// both. A stray fmt call, closure, or interface boxing in one of them
// is invisible in review and costs an allocation per document position
// — exactly the regression class internal/alloctest exists to catch.
//
// A function annotated //spanjoin:hotpath may not, in its body:
//
//   - call anything in fmt or log (formatting boxes every operand);
//   - create a function literal (closures capture and escape);
//   - convert a concrete value to an interface type, explicitly or by
//     passing it to an interface-typed parameter (boxing);
//   - append into a slice other than the one being extended
//     (x = append(x, ...) reuses capacity; y = append(x, ...) and
//     passing an append result along do not);
//   - allocate with make, new, or a composite-literal address, or
//     convert between string and []byte (hot paths draw from pools
//     and arenas; see graphPool in internal/enum).
//
// The annotation set is itself cross-checked: every hotpath function
// must be covered by an allocation gate — a //spanjoin:allocgate
// comment naming it next to an alloctest assertion — and every gate
// must name a hotpath function, so the static rules and the dynamic
// allocs-per-op measurement cannot drift apart.
package hotpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"spanjoin/internal/analysis"
)

// Directive marks a function as a hot path in its doc comment.
const Directive = "//spanjoin:hotpath"

// GateDirective marks an alloctest site as gating named hot paths:
// //spanjoin:allocgate <canonical-name> [<canonical-name>...]
const GateDirective = "//spanjoin:allocgate"

var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "//spanjoin:hotpath bodies stay allocation-free\n\n" +
		"Annotated functions may not call fmt/log, create closures, box " +
		"values into interfaces, append into foreign slices, or allocate " +
		"with make/new/composite literals; the annotation set must match " +
		"the //spanjoin:allocgate set of internal/alloctest assertions.",
	Run:    run,
	Finish: finish,
}

// hotpathFact records one annotated function.
type hotpathFact struct {
	name string // canonical: pkgpath.(*Recv).Name / pkgpath.Recv.Name / pkgpath.Name
	pos  token.Pos
}

// gateFact records one name covered by an allocgate comment.
type gateFact struct {
	name string
	pos  token.Pos
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		collectGates(pass, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc) {
				continue
			}
			pass.ExportFact(&hotpathFact{name: canonicalName(pass, fd), pos: fd.Name.Pos()})
			checkBody(pass, fd)
		}
	}
	return nil
}

func hasDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == Directive {
			return true
		}
	}
	return false
}

// collectGates exports a gateFact per name listed in any allocgate
// comment of the file (typically next to an alloctest.Assert call).
func collectGates(pass *analysis.Pass, file *ast.File) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if !strings.HasPrefix(text, GateDirective) {
				continue
			}
			rest := strings.TrimPrefix(text, GateDirective)
			if rest == text || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
				continue // e.g. //spanjoin:allocgates — not the directive
			}
			for _, name := range strings.Fields(rest) {
				pass.ExportFact(&gateFact{name: name, pos: c.Pos()})
			}
		}
	}
}

// canonicalName renders the allocgate spelling of a declaration:
// pkg/path.Func, pkg/path.Recv.Method or pkg/path.(*Recv).Method.
func canonicalName(pass *analysis.Pass, fd *ast.FuncDecl) string {
	pkg := pass.Pkg.Path()
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		return fmt.Sprintf("%s.(*%s).%s", pkg, typeName(star.X), fd.Name.Name)
	}
	return fmt.Sprintf("%s.%s.%s", pkg, typeName(t), fd.Name.Name)
}

func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver Recv[T]
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	}
	return "?"
}

// forbiddenCallPkgs are import paths a hot path may not call into.
var forbiddenCallPkgs = map[string]bool{"fmt": true, "log": true}

func checkBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(),
				"hotpath %s creates a closure: captured variables escape to the heap — hoist the function or pass state explicitly",
				name)
			return false // the literal's body is the closure's problem
		case *ast.CallExpr:
			checkCall(pass, name, n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(),
						"hotpath %s takes the address of a composite literal: this allocates — draw from a pool or arena",
						name)
				}
			}
		case *ast.AssignStmt:
			checkAppendAssign(pass, name, n)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, name string, call *ast.CallExpr) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make", "new":
			if pass.TypesInfo.Types[fun].IsBuiltin() {
				pass.Reportf(call.Pos(),
					"hotpath %s allocates with %s: draw from a pool or arena instead",
					name, fun.Name)
				return
			}
		case "append":
			if pass.TypesInfo.Types[fun].IsBuiltin() {
				return // judged at the enclosing assignment
			}
		}
	}

	// string <-> []byte conversions copy.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type
		from := pass.TypesInfo.TypeOf(call.Args[0])
		if from != nil {
			if isString(to) && isByteSlice(from) || isByteSlice(to) && isString(from) {
				pass.Reportf(call.Pos(),
					"hotpath %s converts between string and []byte: this copies — index the original instead",
					name)
			}
			if types.IsInterface(to.Underlying()) && !types.IsInterface(from.Underlying()) {
				pass.Reportf(call.Pos(),
					"hotpath %s converts %s to interface %s: boxing allocates",
					name, from, to)
			}
		}
		return
	}

	// Calls into fmt/log, and implicit boxing at interface parameters.
	var callee *types.Func
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		callee, _ = pass.TypesInfo.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	}
	if callee != nil && callee.Pkg() != nil && forbiddenCallPkgs[callee.Pkg().Path()] {
		pass.Reportf(call.Pos(),
			"hotpath %s calls %s.%s: formatting boxes every operand — hot paths must not format",
			name, callee.Pkg().Name(), callee.Name())
		return
	}
	sig, _ := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		if sig.Variadic() && i >= sig.Params().Len()-1 {
			if s, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok {
				param = s.Elem()
			}
		} else if i < sig.Params().Len() {
			param = sig.Params().At(i).Type()
		}
		if param == nil || !types.IsInterface(param.Underlying()) {
			continue
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil || types.IsInterface(at.Underlying()) {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		pass.Reportf(arg.Pos(),
			"hotpath %s passes %s to an interface parameter of %s: boxing allocates",
			name, at, calleeName(call))
	}
}

func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "the callee"
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// checkAppendAssign enforces self-append: append's result must be
// assigned back to the slice being extended (modulo a [:0] reslice),
// so the backing array is reused rather than grown into a fresh one.
func checkAppendAssign(pass *analysis.Pass, name string, as *ast.AssignStmt) {
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "append" || !pass.TypesInfo.Types[id].IsBuiltin() || len(call.Args) == 0 {
			continue
		}
		if i >= len(as.Lhs) {
			continue
		}
		dst := exprString(as.Lhs[i])
		src := exprString(baseOfReslice(call.Args[0]))
		if dst != src {
			pass.Reportf(call.Pos(),
				"hotpath %s appends into %s but assigns to %s: growing a foreign slice allocates — self-append (x = append(x, ...)) reuses capacity",
				name, src, dst)
		}
	}
}

// baseOfReslice unwraps x[:0]-style reslices: append(x[:0], ...) back
// into x is the reuse idiom, not a foreign append.
func baseOfReslice(e ast.Expr) ast.Expr {
	if s, ok := e.(*ast.SliceExpr); ok {
		return s.X
	}
	return e
}

// exprString renders simple lvalue expressions for comparison.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.BasicLit:
		return e.Value
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	}
	return fmt.Sprintf("<%T>", e)
}

// finish cross-checks the annotation set against the allocation gates.
// Inactive when no gate exists anywhere (fixture programs exercising
// only the body rules), active the moment one does.
func finish(prog *analysis.Program) []analysis.Diagnostic {
	hot := map[string]token.Pos{}
	gates := map[string]token.Pos{}
	for _, f := range prog.Facts {
		switch v := f.Value.(type) {
		case *hotpathFact:
			hot[v.name] = v.pos
		case *gateFact:
			gates[v.name] = v.pos
		}
	}
	if len(gates) == 0 {
		return nil
	}
	var diags []analysis.Diagnostic
	var names []string
	for n := range hot {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, ok := gates[n]; !ok {
			diags = append(diags, analysis.Diagnostic{
				Analyzer: "hotpath",
				Pos:      prog.Fset.Position(hot[n]),
				Message: n + " is annotated " + Directive + " but no alloctest assertion gates it: add " +
					GateDirective + " " + n + " next to an allocation test",
			})
		}
	}
	names = names[:0]
	for n := range gates {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, ok := hot[n]; !ok {
			diags = append(diags, analysis.Diagnostic{
				Analyzer: "hotpath",
				Pos:      prog.Fset.Position(gates[n]),
				Message: "allocation gate names " + n + " which is not annotated " + Directive +
					": gate and annotation sets must match",
			})
		}
	}
	return diags
}
