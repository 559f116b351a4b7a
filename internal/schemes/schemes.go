// Package schemes is the registry every scheme in the repository is
// constructed, benchmarked, served, and selected through. The paper's
// point is a *family* of schemes parameterized along the space-stretch
// curve; the registry makes each family member addressable by a stable
// kind string so the facade (compactroute.Build), the experiment
// harness (internal/bench), and the daemons (cmd/routed, cmd/routebench)
// share one construction path instead of five hard-coded switches.
//
// Registered kinds at init:
//
//	paper      §3 / Theorem 1 (AGM SPAA'06), persistable
//	fulltable  stretch-1 next-hop tables, persistable
//	apcover    Awerbuch–Peleg-style hierarchy (log Δ space)
//	landmark   scale-free landmark chain (unbounded stretch)
//	tz         Thorup–Zwick labeled routing (weaker model)
package schemes

import (
	"fmt"
	"sort"
	"sync"

	"compactroute/internal/baseline"
	"compactroute/internal/bitsize"
	"compactroute/internal/core"
	"compactroute/internal/graph"
	"compactroute/internal/routeerr"
	"compactroute/internal/sim"
	"compactroute/internal/sssp"
)

// The built-in kind names. This package is the single owner of these
// strings — the codec's kind tags and the facade's re-exports alias
// them, so a rename cannot silently diverge.
const (
	KindPaper         = "paper"
	KindFullTable     = "fulltable"
	KindAPCover       = "apcover"
	KindLandmarkChain = "landmark"
	KindTZ            = "tz"
)

// Config is the kind-independent construction knob set. Kinds ignore
// what they don't use (fulltable ignores K; only paper reads SFactor).
type Config struct {
	// Kind selects the scheme family member by registry name.
	Kind string
	// K is the space-stretch trade-off parameter.
	K int
	// Seed drives all randomized choices. Zero is a valid seed.
	Seed uint64
	// SFactor scales the paper scheme's landmark S-set constants;
	// 0 means the paper's 16.
	SFactor float64
}

// Scheme is what every registry kind builds: a router the simulation
// engine can drive plus the storage accounting the experiments report.
type Scheme interface {
	sim.Router
	MaxTableBits() bitsize.Bits
	MeanTableBits() float64
}

// Builder constructs one kind over a graph and its all-pairs shortest
// paths, one row per node in source order (construction needs the full
// metric by definition; serving does not — see the codec). Builders
// read the rows and never modify them: the caller's network and a
// paper scheme's decomposition share the same rows.
type Builder func(g *graph.Graph, apsp []*sssp.Result, cfg Config) (Scheme, error)

// Info describes a registered kind.
type Info struct {
	// Kind is the registry name.
	Kind string
	// Description is a one-line summary for -help output and tables.
	Description string
	// Model names the routing model ("name-independent", "labeled").
	Model string
	// Persistable marks kinds with a persistent form (codec support).
	Persistable bool
	// Build constructs the scheme.
	Build Builder
}

var (
	mu       sync.RWMutex
	registry = make(map[string]Info)
)

// Register adds a kind. Registering an empty kind, a nil builder, or a
// duplicate name panics: registration happens at init time, where a
// bad registration is a programming error, not a runtime condition.
func Register(info Info) {
	if info.Kind == "" || info.Build == nil {
		panic("schemes: Register needs a kind name and a builder")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[info.Kind]; dup {
		panic(fmt.Sprintf("schemes: kind %q registered twice", info.Kind))
	}
	registry[info.Kind] = info
}

// Lookup returns the kind's registration.
func Lookup(kind string) (Info, bool) {
	mu.RLock()
	defer mu.RUnlock()
	info, ok := registry[kind]
	return info, ok
}

// Kinds returns every registered kind, sorted.
func Kinds() []string {
	mu.RLock()
	defer mu.RUnlock()
	ks := make([]string, 0, len(registry))
	for k := range registry {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// PersistableKinds returns every registered kind with a persistent
// form (codec support), sorted — the kinds Save accepts and a dynamic
// snapshot store writes bytes for.
func PersistableKinds() []string {
	mu.RLock()
	defer mu.RUnlock()
	var ks []string
	for k, info := range registry {
		if info.Persistable {
			ks = append(ks, k)
		}
	}
	sort.Strings(ks)
	return ks
}

// Build constructs a scheme of cfg.Kind, wrapping ErrUnknownKind when
// the kind is not registered.
func Build(g *graph.Graph, apsp []*sssp.Result, cfg Config) (Scheme, error) {
	info, ok := Lookup(cfg.Kind)
	if !ok {
		return nil, fmt.Errorf("schemes: %w %q (have %v)", routeerr.ErrUnknownKind, cfg.Kind, Kinds())
	}
	return info.Build(g, apsp, cfg)
}

func init() {
	Register(Info{
		Kind:        KindPaper,
		Description: "AGM SPAA'06 scheme (Theorem 1): stretch O(k), Õ(n^{1/k}) bits/node, scale-free",
		Model:       "name-independent, scale-free",
		Persistable: true,
		Build: func(g *graph.Graph, apsp []*sssp.Result, cfg Config) (Scheme, error) {
			return core.BuildWithAPSP(g, apsp, core.Params{K: cfg.K, Seed: cfg.Seed, SFactor: cfg.SFactor})
		},
	})
	Register(Info{
		Kind:        KindFullTable,
		Description: "stretch-1 next-hop tables, Θ(n log n) bits/node (the §1 strawman)",
		Model:       "name-independent",
		Persistable: true,
		Build: func(g *graph.Graph, apsp []*sssp.Result, cfg Config) (Scheme, error) {
			return baseline.NewFullTable(g, apsp)
		},
	})
	Register(Info{
		Kind:        KindAPCover,
		Description: "Awerbuch–Peleg-style tree-cover hierarchy [9,10]+[3]: linear stretch, log Δ space",
		Model:       "name-independent, log Δ space",
		Build: func(g *graph.Graph, apsp []*sssp.Result, cfg Config) (Scheme, error) {
			return baseline.NewAPCover(g, apsp, baseline.APCoverParams{K: cfg.K, Seed: cfg.Seed})
		},
	})
	Register(Info{
		Kind:        KindLandmarkChain,
		Description: "scale-free landmark chain in the [7,8,6] space family: unbounded worst-case stretch",
		Model:       "name-independent, scale-free",
		Build: func(g *graph.Graph, apsp []*sssp.Result, cfg Config) (Scheme, error) {
			return baseline.NewLandmarkChain(g, apsp, baseline.LandmarkChainParams{K: cfg.K, Seed: cfg.Seed})
		},
	})
	Register(Info{
		Kind:        KindTZ,
		Description: "Thorup–Zwick labeled compact routing [29]: stretch 4k−3 in the weaker labeled model",
		Model:       "labeled (weaker model)",
		Build: func(g *graph.Graph, apsp []*sssp.Result, cfg Config) (Scheme, error) {
			return baseline.NewTZ(g, apsp, baseline.TZParams{K: cfg.K, Seed: cfg.Seed})
		},
	})
}
