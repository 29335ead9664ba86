package dnnf

// c2d-compatible serialization of d-DNNF circuits. The format is the "nnf"
// file format produced by the c2d compiler the paper uses:
//
//	nnf <#nodes> <#edges> <#vars>
//	L <lit>                     leaf literal
//	A <k> <child...>            and-node with k children
//	O <decision-var> <k> <child...>   or-node (0 if no decision variable)
//
// Children reference earlier lines (0-based), so files are topologically
// sorted. True is encoded as `A 0` and false as `O 0 0`, as c2d does.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteNNF serializes the circuit in c2d's nnf format.
func WriteNNF(w io.Writer, n *Node) error {
	bw := bufio.NewWriter(w)
	// Assign line numbers in children-first order.
	line := make(map[int]int)
	var nodes []*Node
	Visit(n, func(m *Node) {
		line[m.ID()] = len(nodes)
		nodes = append(nodes, m)
	})
	maxVar := 0
	for _, v := range n.Vars() {
		if v > maxVar {
			maxVar = v
		}
	}
	if _, err := fmt.Fprintf(bw, "nnf %d %d %d\n", len(nodes), NumEdges(n), maxVar); err != nil {
		return err
	}
	for _, m := range nodes {
		switch m.Kind {
		case KindLit:
			fmt.Fprintf(bw, "L %d\n", m.Lit)
		case KindTrue:
			fmt.Fprintln(bw, "A 0")
		case KindFalse:
			fmt.Fprintln(bw, "O 0 0")
		case KindAnd:
			fmt.Fprintf(bw, "A %d", len(m.Children))
			for _, c := range m.Children {
				fmt.Fprintf(bw, " %d", line[c.ID()])
			}
			fmt.Fprintln(bw)
		case KindOr:
			fmt.Fprintf(bw, "O %d %d", m.Decision, len(m.Children))
			for _, c := range m.Children {
				fmt.Fprintf(bw, " %d", line[c.ID()])
			}
			fmt.Fprintln(bw)
		}
	}
	return bw.Flush()
}

// ParseNNF reads a circuit in c2d's nnf format. The parser checks
// well-formedness and that every ∧ line's children have disjoint supports;
// the caller asserts (or separately validates) determinism. The last node
// is the root, as in c2d's output.
func ParseNNF(r io.Reader) (*Node, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	b := NewBuilder()
	var nodes []*Node
	sawHeader := false
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "c") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "nnf":
			if len(fields) != 4 {
				return nil, fmt.Errorf("dnnf: malformed header %q", text)
			}
			sawHeader = true
		case "L":
			if !sawHeader || len(fields) != 2 {
				return nil, fmt.Errorf("dnnf: malformed literal line %q", text)
			}
			lit, err := strconv.Atoi(fields[1])
			if err != nil || lit == 0 || lit == math.MinInt {
				return nil, fmt.Errorf("dnnf: bad literal %q", fields[1])
			}
			nodes = append(nodes, b.Lit(lit))
		case "A":
			if !sawHeader || len(fields) < 2 {
				return nil, fmt.Errorf("dnnf: malformed and line %q", text)
			}
			children, err := parseChildren(fields[1], fields[2:], nodes)
			if err != nil {
				return nil, err
			}
			if v, ok := sharedVar(children); ok {
				return nil, fmt.Errorf("dnnf: non-decomposable and line %q: variable %d repeats", text, v)
			}
			nodes = append(nodes, b.And(children...))
		case "O":
			if !sawHeader || len(fields) < 3 {
				return nil, fmt.Errorf("dnnf: malformed or line %q", text)
			}
			dec, err := strconv.Atoi(fields[1])
			if err != nil || dec < 0 {
				return nil, fmt.Errorf("dnnf: bad decision variable %q", fields[1])
			}
			children, err := parseChildren(fields[2], fields[3:], nodes)
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, b.orSlice(dec, children))
		default:
			return nil, fmt.Errorf("dnnf: unknown line type %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("dnnf: empty nnf file")
	}
	return nodes[len(nodes)-1], nil
}

func parseChildren(countField string, refs []string, nodes []*Node) ([]*Node, error) {
	k, err := strconv.Atoi(countField)
	if err != nil || k < 0 || k != len(refs) {
		return nil, fmt.Errorf("dnnf: child count %q does not match %d references", countField, len(refs))
	}
	out := make([]*Node, k)
	for i, ref := range refs {
		idx, err := strconv.Atoi(ref)
		if err != nil || idx < 0 || idx >= len(nodes) {
			return nil, fmt.Errorf("dnnf: bad child reference %q", ref)
		}
		out[i] = nodes[idx]
	}
	return out, nil
}
