package dynamic

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"compactroute/internal/graph"
)

// Mutation trace files are line-oriented text, one mutation per line
// in sequence order, replayable against the graph they were generated
// for (cmd/graphgen -mutations emits both):
//
//	# comment
//	mut <count>
//	addnode <name> [<anchor> <weight>]
//	addedge <u> <v> <weight>
//	removeedge <u> <v>
//	setweight <u> <v> <weight>
//	failedge <u> <v>
//	recoveredge <u> <v>
//	failnode <name>
//	recovernode <name>
//
// All node references are external names in decimal. The fail/recover
// records are the transient failure events (OpFailEdge and friends):
// part of the same ordered stream, replay-validated like every other
// record, but affecting the fault overlay rather than the topology.

// WriteTrace emits the mutations in the trace text format.
func WriteTrace(w io.Writer, muts []Mutation) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "mut %d\n", len(muts))
	for _, m := range muts {
		if _, err := fmt.Fprintln(bw, m.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a mutation trace, validating the count header and
// each record's shape (replay-level validity — do the endpoints exist —
// is the Log's job, since it depends on the graph the trace meets).
func ReadTrace(r io.Reader) ([]Mutation, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var (
		muts   []Mutation
		want   = -1
		lineNo int
	)
	fail := func(format string, args ...any) error {
		return fmt.Errorf("dynamic: trace line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "mut" {
			if want >= 0 {
				return nil, fail("duplicate mut line")
			}
			if len(fields) != 2 {
				return nil, fail("mut needs 1 argument")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fail("invalid count %q", fields[1])
			}
			want = n
			continue
		}
		if want < 0 {
			return nil, fail("mutation before mut line")
		}
		op, err := ParseOp(fields[0])
		if err != nil {
			return nil, fail("%v", err)
		}
		m := Mutation{Op: op}
		args := fields[1:]
		parseName := func(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) }
		switch op {
		case OpAddNode:
			if len(args) != 1 && len(args) != 3 {
				return nil, fail("addnode needs 1 or 3 arguments")
			}
			if m.Name, err = parseName(args[0]); err != nil {
				return nil, fail("invalid name %q", args[0])
			}
			if len(args) == 3 {
				if m.V, err = parseName(args[1]); err != nil {
					return nil, fail("invalid anchor %q", args[1])
				}
				if m.W, err = strconv.ParseFloat(args[2], 64); err != nil {
					return nil, fail("invalid weight %q", args[2])
				}
				// Rejected here, not just at Append: a zero weight would
				// make Anchored() false (the zero value is the unanchored
				// sentinel), silently degrading the join to an isolated
				// node when the anchor is the node named 0.
				if !(m.W > 0) {
					return nil, fail("anchored addnode needs a positive weight, got %q", args[2])
				}
			}
		case OpRemoveEdge, OpFailEdge, OpRecoverEdge:
			if len(args) != 2 {
				return nil, fail("%s needs 2 arguments", op)
			}
			if m.U, err = parseName(args[0]); err == nil {
				m.V, err = parseName(args[1])
			}
			if err != nil {
				return nil, fail("invalid endpoints %q", line)
			}
		case OpFailNode, OpRecoverNode:
			if len(args) != 1 {
				return nil, fail("%s needs 1 argument", op)
			}
			if m.Name, err = parseName(args[0]); err != nil {
				return nil, fail("invalid name %q", args[0])
			}
		case OpAddEdge, OpSetWeight:
			if len(args) != 3 {
				return nil, fail("%s needs 3 arguments", op)
			}
			if m.U, err = parseName(args[0]); err == nil {
				m.V, err = parseName(args[1])
			}
			if err != nil {
				return nil, fail("invalid endpoints %q", line)
			}
			if m.W, err = strconv.ParseFloat(args[2], 64); err != nil {
				return nil, fail("invalid weight %q", args[2])
			}
		}
		muts = append(muts, m)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dynamic: trace: %w", err)
	}
	if want < 0 {
		return nil, fmt.Errorf("dynamic: trace: missing mut line")
	}
	if len(muts) != want {
		return nil, fmt.Errorf("dynamic: trace: declared %d mutations, found %d", want, len(muts))
	}
	return muts, nil
}

// mutationJSON is the wire shape of a Mutation (POST /mutate bodies):
// {"op":"setweight","u":7,"v":12,"w":2.5} — op strings as in the trace
// format, names as JSON numbers.
type mutationJSON struct {
	Op   string   `json:"op"`
	Name *uint64  `json:"name,omitempty"`
	U    *uint64  `json:"u,omitempty"`
	V    *uint64  `json:"v,omitempty"`
	W    *float64 `json:"w,omitempty"`
}

// MarshalJSON renders the mutation with its op spelled out and only
// the fields the op uses.
func (m Mutation) MarshalJSON() ([]byte, error) {
	j := mutationJSON{Op: m.Op.String()}
	switch m.Op {
	case OpAddNode:
		j.Name = &m.Name
		if m.Anchored() {
			j.V, j.W = &m.V, &m.W
		}
	case OpRemoveEdge, OpFailEdge, OpRecoverEdge:
		j.U, j.V = &m.U, &m.V
	case OpAddEdge, OpSetWeight:
		j.U, j.V, j.W = &m.U, &m.V, &m.W
	case OpFailNode, OpRecoverNode:
		j.Name = &m.Name
	default:
		return nil, fmt.Errorf("dynamic: marshal: invalid op %d", m.Op)
	}
	return json.Marshal(j)
}

// UnmarshalJSON parses the wire shape, requiring exactly the fields
// the op uses.
func (m *Mutation) UnmarshalJSON(data []byte) error {
	var j mutationJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	op, err := ParseOp(j.Op)
	if err != nil {
		return err
	}
	*m = Mutation{Op: op}
	need := func(field string, p *uint64) error {
		if p == nil {
			return fmt.Errorf("dynamic: %s needs %q", op, field)
		}
		return nil
	}
	switch op {
	case OpAddNode:
		if err := need("name", j.Name); err != nil {
			return err
		}
		m.Name = *j.Name
		if j.V != nil || j.W != nil {
			if j.V == nil || j.W == nil {
				return fmt.Errorf("dynamic: anchored addnode needs both %q and %q", "v", "w")
			}
			// A zero weight must fail here: Anchored() uses the zero
			// value as its unanchored sentinel, so letting w=0 through
			// would silently drop the anchor when v names node 0.
			if !(*j.W > 0) {
				return fmt.Errorf("dynamic: anchored addnode needs a positive weight, got %v", *j.W)
			}
			m.V, m.W = *j.V, *j.W
		}
	case OpRemoveEdge, OpAddEdge, OpSetWeight, OpFailEdge, OpRecoverEdge:
		if err := need("u", j.U); err != nil {
			return err
		}
		if err := need("v", j.V); err != nil {
			return err
		}
		m.U, m.V = *j.U, *j.V
		if op == OpAddEdge || op == OpSetWeight {
			if j.W == nil {
				return fmt.Errorf("dynamic: %s needs %q", op, "w")
			}
			m.W = *j.W
		}
	case OpFailNode, OpRecoverNode:
		if err := need("name", j.Name); err != nil {
			return err
		}
		m.Name = *j.Name
	}
	return nil
}

// GenerateTrace produces a deterministic, seedable mutation trace of
// length k, valid against base: every mutation replays, and no
// RemoveEdge ever disconnects the (assumed connected) graph — rebuilt
// schemes must keep delivering during churn, and a partitioned network
// has no finite stretch to measure. The op mix models overlay churn:
// mostly weight changes (links re-cost), some added links, fewer
// removals, occasional node joins (each immediately linked so it is
// routable). Generation replays its own mutations as it goes, so
// validity is checked against the evolving topology, not the base.
func GenerateTrace(base *graph.Graph, k int, seed uint64) ([]Mutation, error) {
	churn := TraceProfile{SetWeight: 45, AddEdge: 25, RemoveEdge: 15, AddNode: 15}
	muts, _, err := generate(base, k, seed^0xd1a2b3c4d5e6f708, 0xD15C0000_00000000+seed<<16, churn)
	return muts, err
}
