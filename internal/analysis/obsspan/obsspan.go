// Package obsspan machine-checks the stage-tracing taxonomy of the
// observability layer. A function annotated //spanjoin:stage <name>
// claims to be the recording site of that pipeline stage — the place
// that measures admission waits, cache lookups, plan builds, prefilter
// sweeps, enumeration, counting, WAL appends/fsyncs or snapshot cycles
// through the stage recorder, into the stage histograms and the
// per-query trace. The annotation is what CONTRIBUTING.md asks of every
// new pipeline stage, and this analyzer is what keeps it honest: an
// annotated body that never passes the matching Stage constant to a
// recording call (the recorder's Observe or ObserveItems) is a stage
// that silently vanished from /metrics, every trace, slowlog entry and
// `spanctl eval -trace` breakdown.
//
// Two further rules keep the taxonomy closed: the directive must name
// exactly one stage (repeat it for multi-stage functions), and the name
// must exist in internal/obs — the known set is obs.AllStages, the list
// the recorder registers, so the analyzer cannot drift from the taxonomy
// it enforces.
package obsspan

import (
	"go/ast"
	"go/constant"
	"go/types"
	"slices"
	"strings"

	"spanjoin/internal/analysis"
	"spanjoin/internal/obs"
)

// Directive annotates a function as the recording site of one pipeline
// stage: //spanjoin:stage <name>. Repeat it for functions that record
// several stages.
const Directive = "//spanjoin:stage"

var Analyzer = &analysis.Analyzer{
	Name: "obsspan",
	Doc: "//spanjoin:stage functions record their stage\n\n" +
		"An annotated function must pass the matching obs.Stage constant " +
		"to a recording call somewhere in its body; the stage name must " +
		"exist in internal/obs's taxonomy. An annotation without a " +
		"recording is a stage missing from /metrics, every trace and " +
		"every slowlog entry.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				checkDirective(pass, fd, c)
			}
		}
	}
	return nil
}

// checkDirective validates one doc-comment line of fd against the three
// rules: well-formed, known stage, actually recorded.
func checkDirective(pass *analysis.Pass, fd *ast.FuncDecl, c *ast.Comment) {
	text := strings.TrimSpace(c.Text)
	if !strings.HasPrefix(text, Directive) {
		return
	}
	rest := strings.TrimPrefix(text, Directive)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return // a longer word, e.g. //spanjoin:stages — not this directive
	}
	fields := strings.Fields(rest)
	if len(fields) != 1 {
		pass.Reportf(fd.Name.Pos(),
			"%s wants exactly one stage name (repeat the directive for multi-stage functions), got %q",
			Directive, strings.TrimSpace(rest))
		return
	}
	stage := fields[0]
	if !slices.Contains(obs.AllStages, obs.Stage(stage)) {
		pass.Reportf(fd.Name.Pos(),
			"%s names unknown stage %q: the taxonomy lives in internal/obs — add the Stage constant before annotating",
			Directive, stage)
		return
	}
	if fd.Body == nil || !recordsStage(pass, fd.Body, stage) {
		pass.Reportf(fd.Name.Pos(),
			"%s is annotated %s %s but never records that stage: pass the matching Stage constant to a recording call (the stage recorder's Observe/ObserveItems)",
			fd.Name.Name, Directive, stage)
	}
}

// recordsStage reports whether any call in body (closures included —
// worker completions record from goroutines) takes the stage's constant
// as an argument.
func recordsStage(pass *analysis.Pass, body *ast.BlockStmt, stage string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			if isStageConst(pass, arg, stage) {
				found = true
				break
			}
		}
		return !found
	})
	return found
}

// isStageConst reports whether e is a constant of a type named Stage
// whose value is the stage name. Matching on the constant's value and
// type (not the identifier) keeps aliases honest: obs.StagePlan and the
// public spanjoin.StagePlanBuild are the same recording.
func isStageConst(pass *analysis.Pass, e ast.Expr, stage string) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String || constant.StringVal(tv.Value) != stage {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	return ok && named.Obj().Name() == "Stage"
}
