// Package analysis is a self-contained static-analysis framework in
// the shape of golang.org/x/tools/go/analysis, built on nothing but
// the standard library so the repository carries no external tooling
// dependency. It exists to make the repository's correctness
// conventions mechanical instead of reviewed-for:
//
//   - byte-identical rebuilt-vs-cold builds require deterministic
//     iteration in every codec/replay path,
//   - ctx-first cancellation flow keeps caller cancellation separable
//     from shard faults (the PR 6 bug class),
//   - the routeerr taxonomy only works if consumers classify with
//     errors.Is and the HTTP mapper stays total over the sentinels.
//
// An Analyzer inspects one type-checked package at a time through a
// Pass and reports Diagnostics. The Load function type-checks module
// packages offline by combining `go list -export -deps -json` (export
// data comes from the build cache) with the standard gc importer, so
// running the suite needs no network and no GOPATH layout. The
// cmd/crlint multichecker drives every analyzer in this repository;
// analysistest runs one analyzer against testdata fixtures annotated
// with `// want "regexp"` comments.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker: a name diagnostics are
// attributed to, a Doc contract explaining what it flags and what it
// deliberately accepts, and a Run inspecting a single package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass presents one type-checked package to an analyzer. Files
// holds only the package's non-test sources: test files may assert on
// error text or use context.Background freely, so the conventions the
// suite enforces are library-code conventions.
//
// Program lists every package of the run, for the rare whole-program
// check (errtaxonomy's mapper totality needs the routeerr sentinel
// package, which export data never references because its exported
// surface is plain error vars). Such checks must tolerate an absent
// package: a partial run (`crlint ./internal/server`) checks less,
// it does not fail.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Program   []*Package

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportAt records a diagnostic at an already-resolved position — for
// findings anchored in tracked sidecar files (an escape budget, an
// API lock file) rather than in Go source.
func (p *Pass) ReportAt(pos token.Position, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported violation, addressed by resolved file
// position so output ordering and suppression matching are stable
// across runs.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Run applies every analyzer to every package and returns the merged
// diagnostics sorted by position, analyzer, then message — a
// deterministic order regardless of package load order. Analyzer
// errors (not diagnostics) abort the run: a checker that cannot do
// its job must fail loudly, not pass silently.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Program:   pkgs,
				report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: analyzing %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// PathHasSuffix reports whether the slash-separated package path ends
// in suffix on a path-segment boundary: "compactroute/internal/codec"
// matches "internal/codec" but not "nal/codec". Analyzers scope
// themselves with it so the same source fixture works whether loaded
// by its real module path or an abbreviated testdata path.
func PathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// IsContextType reports whether t is exactly context.Context.
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// IsErrorType reports whether t implements the built-in error
// interface (and is not the untyped nil).
func IsErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errType)
}

// PkgFunc resolves a call expression to the package-level function it
// invokes, or nil when the callee is anything else (method value,
// local closure, conversion). Detection is by object identity in the
// type info, so import renames cannot fool it.
func PkgFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return nil
	}
	return fn
}

// IsPkgCall reports whether call invokes the package-level function
// pkgPath.name.
func IsPkgCall(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := PkgFunc(info, call)
	return fn != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}
