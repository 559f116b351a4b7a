// Package ctxflow enforces the repository's context-first
// cancellation conventions (the v2 API contract from PR 3): library
// code receives its context from the caller instead of minting one,
// context parameters come first, and contexts flow through call
// chains rather than being stored.
//
// It flags, in non-main packages:
//
//   - context.Background() / context.TODO() calls. One shape is
//     accepted: the repository's convenience-wrapper idiom, where a
//     context-less exported function forwards directly to its
//     context-taking variant (Route → RouteCtx, Build →
//     BuildStream). The callee must extend the wrapper's own
//     name and the wrapper must not itself have a context to pass.
//   - a context.Context parameter that is not the first parameter of
//     its signature (receivers excluded).
//   - context.Context struct fields: a stored context outlives its
//     cancellation scope, which is how detached-work bugs start.
//
// Background-rooted work that genuinely has no caller (periodic
// probes on their own lifecycle) goes through the tracked
// suppression file with a reason, not past this analyzer.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"compactroute/internal/analysis"
)

// Analyzer is the ctxflow checker.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "enforce ctx-first flow: no Background/TODO in library code, ctx params first, no ctx struct fields",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	isMain := pass.Pkg.Name() == "main"
	for _, f := range pass.Files {
		analysis.WithStack(f, func(n ast.Node, stack []ast.Node) {
			switch n := n.(type) {
			case *ast.CallExpr:
				if !isMain {
					checkBackground(pass, n, stack)
				}
			case *ast.FuncType:
				checkParamOrder(pass, n)
			case *ast.StructType:
				checkStructFields(pass, n)
			}
		})
	}
	return nil
}

func checkBackground(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) {
	name := ""
	switch {
	case analysis.IsPkgCall(pass.TypesInfo, call, "context", "Background"):
		name = "context.Background"
	case analysis.IsPkgCall(pass.TypesInfo, call, "context", "TODO"):
		name = "context.TODO"
	default:
		return
	}
	if isWrapperForward(pass, call, stack) {
		return
	}
	pass.Reportf(call.Pos(), "%s() in library code: accept a ctx from the caller (ctx-first) instead of minting one", name)
}

// isWrapperForward recognizes the convenience-wrapper idiom: the
// Background() call is a direct argument of a call to a function
// whose name extends the enclosing function's own name (Route →
// RouteCtx, AllPairsParallel → AllPairsParallelCtx), and the wrapper has
// no context parameter it should have forwarded instead.
func isWrapperForward(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) bool {
	fnNode, fnName := analysis.EnclosingFunc(stack)
	if fnName == "" {
		return false // function literals are not wrappers
	}
	decl := fnNode.(*ast.FuncDecl)
	if hasContextParam(pass.TypesInfo, decl.Type) {
		return false
	}
	parent, ok := stack[len(stack)-1].(*ast.CallExpr)
	if !ok {
		return false
	}
	isArg := false
	for _, arg := range parent.Args {
		if arg == ast.Expr(call) {
			isArg = true
		}
	}
	if !isArg {
		return false
	}
	callee := ""
	switch fun := parent.Fun.(type) {
	case *ast.Ident:
		callee = fun.Name
	case *ast.SelectorExpr:
		callee = fun.Sel.Name
	}
	return callee != fnName && strings.HasPrefix(callee, fnName)
}

func hasContextParam(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if tv, ok := info.Types[field.Type]; ok && analysis.IsContextType(tv.Type) {
			return true
		}
	}
	return false
}

func checkParamOrder(pass *analysis.Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	index := 0
	for _, field := range ft.Params.List {
		width := len(field.Names)
		if width == 0 {
			width = 1 // unnamed parameter
		}
		if tv, ok := pass.TypesInfo.Types[field.Type]; ok && analysis.IsContextType(tv.Type) && index > 0 {
			pass.Reportf(field.Pos(), "context.Context must be the first parameter")
		}
		index += width
	}
}

func checkStructFields(pass *analysis.Pass, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if tv, ok := pass.TypesInfo.Types[field.Type]; ok && analysis.IsContextType(tv.Type) {
			pass.Reportf(field.Pos(), "context.Context stored in a struct field: pass it as an argument so cancellation scope stays explicit")
		}
	}
}
