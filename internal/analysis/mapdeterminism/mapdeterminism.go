// Package mapdeterminism enforces the byte-identical output contract
// on the repository's encoding and replay paths: a rebuilt version, a
// replayed mutation log, and a cold build must produce identical
// bytes, so nothing on those paths may iterate a Go map in its
// randomized order.
//
// The analyzer flags `range` over a map expression in internal/codec,
// internal/dynamic, and internal/schemes, and in every package's
// snapshot.go codec-export hooks. Two shapes are accepted:
//
//   - `for range m` with no iteration variables (order cannot leak),
//   - the sorted-keys idiom: a range whose body only collects the
//     keys into a slice that the same function subsequently sorts
//     (sort.* or slices.Sort*) before use.
//
// Everything else is a diagnostic, even when today's body looks
// harmless: the contract is structural, so the next edit cannot
// silently make output order depend on map iteration.
package mapdeterminism

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"compactroute/internal/analysis"
)

// Analyzer is the mapdeterminism checker.
var Analyzer = &analysis.Analyzer{
	Name: "mapdeterminism",
	Doc:  "forbid map-order-dependent iteration in codec/replay/snapshot paths (byte-identical output contract)",
	Run:  run,
}

// scopedPkgs are the package-path suffixes where every file is a
// deterministic-output path.
var scopedPkgs = []string{"internal/codec", "internal/dynamic", "internal/schemes"}

func run(pass *analysis.Pass) error {
	wholePkg := false
	for _, p := range scopedPkgs {
		if analysis.PathHasSuffix(pass.Pkg.Path(), p) {
			wholePkg = true
		}
	}
	for _, f := range pass.Files {
		if !wholePkg {
			// Outside the scoped packages only the codec-export hooks
			// (each scheme's snapshot.go) carry the contract.
			name := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
			if name != "snapshot.go" {
				continue
			}
		}
		analysis.WithStack(f, func(n ast.Node, stack []ast.Node) {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok {
				return
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return
			}
			if rs.Key == nil && rs.Value == nil {
				return // pure repetition: iteration order cannot leak
			}
			if isSortedKeyCollection(pass, rs, stack) {
				return
			}
			pass.Reportf(rs.Pos(), "range over map in a deterministic-output path: collect the keys and sort them first")
		})
	}
	return nil
}

// isSortedKeyCollection accepts the canonical deterministic-iteration
// idiom, plain or filtered:
//
//	keys := make([]K, 0, len(m))
//	for k := range m {
//		keys = append(keys, k)       // or: if cond { keys = append(keys, k) }
//	}
//	sort.Slice(keys, ...)        // or sort.Strings, slices.Sort, ...
//
// The range body must do nothing but (conditionally) append the key
// to one slice, and that slice must be sorted later in the same
// function: the collected result is then a set, so iteration order
// cannot reach the output.
func isSortedKeyCollection(pass *analysis.Pass, rs *ast.RangeStmt, stack []ast.Node) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	if len(rs.Body.List) != 1 {
		return false
	}
	stmt := rs.Body.List[0]
	if ifStmt, ok := stmt.(*ast.IfStmt); ok {
		// Filtered collection: the guard may consult the value, the
		// body still only appends the key.
		if ifStmt.Else != nil || ifStmt.Init != nil || len(ifStmt.Body.List) != 1 {
			return false
		}
		stmt = ifStmt.Body.List[0]
	} else if rs.Value != nil {
		if id, ok := rs.Value.(*ast.Ident); !ok || id.Name != "_" {
			return false // touching values outside a filter guard means order-dependent work
		}
	}
	assign, ok := stmt.(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	slice, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if fun, ok := call.Fun.(*ast.Ident); !ok || fun.Name != "append" {
		return false
	}
	if dst, ok := call.Args[0].(*ast.Ident); !ok || dst.Name != slice.Name {
		return false
	}
	if !mentionsIdent(call.Args[1], pass.TypesInfo, objectOf(pass.TypesInfo, key)) {
		return false
	}
	fnNode, _ := analysis.EnclosingFunc(stack)
	if fnNode == nil {
		return false
	}
	return sortedAfter(pass, fnNode, objectOf(pass.TypesInfo, slice), rs.End())
}

func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// mentionsIdent reports whether expr references obj anywhere (the key
// may be wrapped in a conversion, e.g. append(keys, string(k))).
func mentionsIdent(expr ast.Expr, info *types.Info, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objectOf(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// sortedAfter reports whether fn's body contains, after pos, a call
// into package sort (any API) or a slices.Sort* call that references
// the collected slice.
func sortedAfter(pass *analysis.Pass, fn ast.Node, slice types.Object, pos token.Pos) bool {
	if slice == nil {
		return false
	}
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || found {
			return !found
		}
		pkgFn := analysis.PkgFunc(pass.TypesInfo, call)
		if pkgFn == nil {
			return true
		}
		path := pkgFn.Pkg().Path()
		isSort := path == "sort" || (path == "slices" && strings.HasPrefix(pkgFn.Name(), "Sort"))
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			if mentionsIdent(arg, pass.TypesInfo, slice) {
				found = true
			}
		}
		return !found
	})
	return found
}
