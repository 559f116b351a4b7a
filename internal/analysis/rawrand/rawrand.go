// Package rawrand keeps randomized construction reproducible: every
// build, replay, and workload path must draw from the seeded
// internal/xrand generator, because the repository's guarantees are
// stated as byte-identities (rebuilt == cold build, replay == cold
// build) and the global math/rand source makes runs unrepeatable.
//
// The analyzer flags calls to the global-state top-level functions of
// math/rand and math/rand/v2 (Intn, Float64, Perm, Shuffle, Seed, …)
// in non-main library packages. Constructing explicit seeded
// generators (rand.New, rand.NewSource, …) is not flagged — an
// explicitly seeded source is exactly what determinism wants, though
// in-repo code should normally reach for internal/xrand.
//
// The serving tier (internal/server, internal/cluster, internal/serve)
// is out of scope: jitter for backoff and probing is allowed to be
// nondeterministic there.
package rawrand

import (
	"go/ast"
	"go/types"

	"compactroute/internal/analysis"
)

// Analyzer is the rawrand checker.
var Analyzer = &analysis.Analyzer{
	Name: "rawrand",
	Doc:  "forbid global math/rand in build/replay/workload paths; use seeded internal/xrand",
	Run:  run,
}

// exemptPkgs are serving-tier packages where nondeterministic jitter
// is legitimate.
var exemptPkgs = []string{"internal/server", "internal/cluster", "internal/serve"}

// seededConstructors create explicit generators instead of touching
// the global source.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, p := range exemptPkgs {
		if analysis.PathHasSuffix(pass.Pkg.Path(), p) {
			return nil
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			path := fn.Pkg().Path()
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // methods run on an explicit, seedable generator
			}
			if seededConstructors[fn.Name()] {
				return true
			}
			pass.Reportf(sel.Pos(), "global %s.%s in a reproducibility path: draw from the seeded internal/xrand generator", path, fn.Name())
			return true
		})
	}
	return nil
}
