// Package sim is the message-level routing substrate every scheme in
// this repository is evaluated on.
//
// A routing scheme is a distributed object: per-node local state plus
// a step function that, given the current node and the message header,
// either delivers, fails, or names an outgoing *port*. The engine owns
// the only global view — it resolves ports to edges, accumulates the
// traversed cost, and enforces that every hop crosses a real edge of
// the graph and that routes terminate. A scheme that peeked at global
// state could not cheat the cost accounting, and a scheme that emitted
// an invalid port is caught immediately.
//
// A real node holds its own record; a simulated step has to find x's
// record among the scheme's arrays. The tree-based schemes keep their
// position in the header for that: the index of x in the tree the
// current leg runs on, updated with every forwarded port, so a step
// reads x's record by index rather than hashing x into a per-tree map.
// Header.Bits does not charge the position: given the tree, which the
// header already names, it is a function of x and carries no
// information. Each step still checks that the position names x.
//
// Measure is the stretch sweep over the engine — every strided source
// row routed against every destination, rows fanned across workers —
// that the facade's MeasureStretch, the experiment runners, and
// routesim -measure all share.
package sim

import (
	"context"
	"fmt"

	"compactroute/internal/bitsize"
	"compactroute/internal/graph"
	"compactroute/internal/obs"
)

// Action is a router's per-step decision.
type Action uint8

const (
	// Forward crosses the port returned alongside.
	Forward Action = iota
	// Delivered means the current node is the destination.
	Delivered
	// Failed means the scheme gives up at the current node (a
	// correctness bug for the schemes in this repository; the engine
	// reports it rather than panicking so experiments can count it).
	Failed
)

// Header is a routing header in flight. Schemes attach their own state;
// the engine only ever asks for its size.
type Header interface {
	// Bits returns the current header size for accounting.
	Bits() bitsize.Bits
}

// Router is a distributed routing scheme.
type Router interface {
	// Name identifies the scheme in tables.
	Name() string
	// Begin prepares a header for a message from src to the node with
	// the given external name.
	Begin(src graph.NodeID, dstName uint64) (Header, error)
	// Step makes the local decision at x. It must consult only x's
	// local tables and the header.
	Step(x graph.NodeID, h Header) (Action, int, error)
}

// Result describes one simulated routing.
type Result struct {
	Delivered bool
	Cost      float64
	Hops      int
	// MaxHeaderBits is the largest header observed in flight.
	MaxHeaderBits bitsize.Bits
	// Path is the traversed node sequence (only when tracing).
	Path []graph.NodeID
}

// tracePathCap is the capacity a traced route's path starts with, so
// one allocation holds a route of up to 31 hops. That covers the
// routes the experiments take (the paper scheme at n=512, k=3: 13 hops
// at the median, 30 at the most over 2,000 routes); a longer route
// grows the path by appending.
const tracePathCap = 32

// Engine drives routers over a fixed graph. It holds no per-route
// state, so one engine may drive any number of routes concurrently.
type Engine struct {
	g *graph.Graph
	// MaxHops aborts runaway routes; 0 means 64·n·(log n + 1).
	MaxHops int
	// Trace records full paths in results.
	Trace bool
}

// NewEngine returns an engine over g.
func NewEngine(g *graph.Graph) *Engine { return &Engine{g: g} }

// Graph returns the underlying graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

func (e *Engine) hopCap() int {
	if e.MaxHops > 0 {
		return e.MaxHops
	}
	n := e.g.N()
	cap := 64 * n
	for m := n; m > 1; m /= 2 {
		cap += 64 * n
	}
	return cap
}

// Route delivers one message and accounts its cost.
func (e *Engine) Route(r Router, src graph.NodeID, dstName uint64) (Result, error) {
	return e.RouteCtx(context.Background(), r, src, dstName)
}

// RouteCtx is Route honoring cancellation: the hop loop checks ctx
// between steps, so a canceled context aborts a long multi-hop route
// promptly with a wrapped context error (errors.Is-matchable against
// context.Canceled / context.DeadlineExceeded) instead of walking to
// completion. Contexts that can never be canceled (context.Background)
// pay nothing.
func (e *Engine) RouteCtx(ctx context.Context, r Router, src graph.NodeID, dstName uint64) (Result, error) {
	h, err := r.Begin(src, dstName)
	if err != nil {
		return Result{}, fmt.Errorf("sim: %s: begin: %w", r.Name(), err)
	}
	res := Result{MaxHeaderBits: h.Bits()}
	if e.Trace {
		res.Path = make([]graph.NodeID, 1, tracePathCap)
		res.Path[0] = src
	}
	cancelable := ctx.Done() != nil
	tr := obs.FromContext(ctx)
	cur := src
	cap := e.hopCap()
	for {
		if cancelable {
			if err := ctx.Err(); err != nil {
				return res, fmt.Errorf("sim: %s: canceled after %d hops: %w", r.Name(), res.Hops, err)
			}
		}
		act, port, err := r.Step(cur, h)
		if err != nil {
			return res, fmt.Errorf("sim: %s: step at %d: %w", r.Name(), cur, err)
		}
		switch act {
		case Delivered:
			if e.g.Name(cur) != dstName {
				return res, fmt.Errorf("sim: %s: delivered to %d (name %#x), want name %#x",
					r.Name(), cur, e.g.Name(cur), dstName)
			}
			res.Delivered = true
			return res, nil
		case Failed:
			return res, nil
		case Forward:
			if port < 0 || port >= e.g.Degree(cur) {
				return res, fmt.Errorf("sim: %s: invalid port %d at node %d", r.Name(), port, cur)
			}
			edge := e.g.EdgeAt(cur, port)
			if tr != nil {
				tr.Hop(e.g.Name(cur), port)
			}
			res.Cost += edge.Weight
			res.Hops++
			cur = edge.To
			if e.Trace {
				res.Path = append(res.Path, cur)
			}
			if b := h.Bits(); b > res.MaxHeaderBits {
				res.MaxHeaderBits = b
			}
			if res.Hops > cap {
				return res, fmt.Errorf("sim: %s: exceeded %d hops (livelock?)", r.Name(), cap)
			}
		default:
			return res, fmt.Errorf("sim: %s: unknown action %d", r.Name(), act)
		}
	}
}
