package compactroute

import (
	"context"
	"fmt"

	"compactroute/internal/schemes"
	"compactroute/internal/sim"
)

// Config selects and parameterizes a scheme kind for Build. Kinds
// ignore the knobs they don't use: fulltable reads none of them, only
// paper reads SFactor.
type Config = schemes.Config

// KindInfo describes one registered scheme kind.
type KindInfo struct {
	// Kind is the registry name (the Config.Kind / -scheme value).
	Kind string
	// Description is a one-line summary for help output and tables.
	Description string
	// Model names the routing model ("name-independent", "labeled").
	Model string
	// Persistable marks kinds whose schemes round-trip through
	// Save/Load.
	Persistable bool
}

// Kinds returns every registered scheme kind, sorted. The five
// built-ins are "apcover", "fulltable", "landmark", "paper", and "tz".
func Kinds() []string { return schemes.Kinds() }

// PersistableKinds returns the registered kinds whose schemes
// round-trip through Save/Load, sorted.
func PersistableKinds() []string { return schemes.PersistableKinds() }

// LookupKind returns a kind's registration metadata.
func LookupKind(kind string) (KindInfo, bool) {
	info, ok := schemes.Lookup(kind)
	if !ok {
		return KindInfo{}, false
	}
	return KindInfo{
		Kind:        info.Kind,
		Description: info.Description,
		Model:       info.Model,
		Persistable: info.Persistable,
	}, true
}

// Build constructs a scheme of cfg.Kind over the network — the single
// construction path of the v2 API, replacing the per-scheme
// constructors of v1 (see DESIGN.md §1 for the migration table). An
// unregistered kind errors with a wrapped ErrUnknownKind. It is
// BuildStream without cancellation.
func Build(net *Network, cfg Config) (*Scheme, error) {
	return BuildStream(context.Background(), net, cfg)
}

// BuildStream constructs a scheme of cfg.Kind over the network's
// all-pairs shortest paths (DESIGN.md §6). A network without its
// metric (WrapGraphLazy, Load) computes it first, across all cores,
// and keeps it: the built scheme's results carry true stretch, and the
// rows are shared with every later build on the network. Every kind
// reads the same rows; the paper kind's decomposition holds them for
// the scheme's life.
//
// Cancelling ctx before or during the metric's sweep aborts the build
// with a wrapped context.Canceled (or DeadlineExceeded), once every
// sweep worker has returned; a canceled sweep publishes no metric.
func BuildStream(ctx context.Context, net *Network, cfg Config) (*Scheme, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("compactroute: building kind %q: %w", cfg.Kind, err)
	}
	all, err := net.metricCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("compactroute: building kind %q: %w", cfg.Kind, err)
	}
	r, err := schemes.Build(net.g, all, cfg)
	if err != nil {
		return nil, err
	}
	return newScheme(net, cfg.Kind, r, r), nil
}

// Builder constructs a scheme over a network for one registered kind.
type Builder func(net *Network, cfg Config) (*Scheme, error)

// Register adds a scheme kind to the registry, making it buildable by
// name everywhere kinds are enumerated (Build, cmd/routed -scheme,
// cmd/routebench). Registration is init-time plumbing: an empty kind,
// a nil builder, or a duplicate name panics. Registered kinds are not
// persistable (Save refuses them); persistence requires codec support.
func Register(kind string, b Builder) {
	if b == nil {
		panic("compactroute: Register needs a builder")
	}
	schemes.Register(schemes.Info{
		Kind:        kind,
		Description: "externally registered scheme",
		Build: func(g *graphT, apsp []*ssspResult, cfg Config) (schemes.Scheme, error) {
			s, err := b(adoptNetwork(g, apsp), cfg)
			if err != nil {
				return nil, err
			}
			if s == nil || s.router == nil {
				return nil, fmt.Errorf("compactroute: kind %q built a nil scheme", kind)
			}
			return registeredScheme{Router: s.router, table: s.table}, nil
		},
	})
}

// registeredScheme adapts a facade-built Scheme back to the internal
// registry's interface.
type registeredScheme struct {
	sim.Router
	table tableSizer
}

// MaxTableBits returns the largest per-node table.
func (r registeredScheme) MaxTableBits() bitsT { return r.table.MaxTableBits() }

// MeanTableBits returns the mean per-node table size.
func (r registeredScheme) MeanTableBits() float64 { return r.table.MeanTableBits() }
