// Command tracetool reads a causal span log — the JSONL format
// telemetry.SpanRecorder.WriteJSONL, anonsim -span-out and faultsim's
// Result.SpanJSONL all emit — reconstructs each batch's span tree, and
// prints a text flame summary: the full I → forwarders → R → settlement
// causal structure, the critical path (by timestamp when the log carries
// a clock, by causal depth otherwise), and a per-forwarder attribution
// table with dwell time and, when a contract is supplied, the paper's
// income m·P_f + P_r/‖π‖ next to the payoff actually settled.
//
// Usage:
//
//	tracetool [-pf 0] [-pr 0] [-trace <16-hex-id>] [file.jsonl]
//
// With no file the log is read from stdin.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"p2panon/internal/telemetry"
)

func main() {
	pf := flag.Float64("pf", 0, "contract forwarding benefit P_f (0 = no income column)")
	pr := flag.Float64("pr", 0, "contract routing benefit P_r")
	traceFilter := flag.String("trace", "", "only analyse the trace with this 16-hex-digit id")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		defer f.Close()
		in = f
	}
	spans, err := telemetry.ReadSpans(in)
	if err != nil {
		fail(err)
	}
	if *traceFilter != "" {
		id, err := strconv.ParseUint(*traceFilter, 16, 64)
		if err != nil {
			fail(fmt.Errorf("bad -trace %q: %w", *traceFilter, err))
		}
		kept := spans[:0]
		for _, s := range spans {
			if s.Trace == telemetry.SpanID(id) {
				kept = append(kept, s)
			}
		}
		spans = kept
	}
	if len(spans) == 0 {
		fail(fmt.Errorf("no spans to analyse"))
	}
	for _, tr := range buildTrees(spans) {
		render(os.Stdout, tr, *pf, *pr)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "tracetool: %v\n", err)
	os.Exit(1)
}

// node is one span with its resolved children, in input (canonical)
// order.
type node struct {
	telemetry.Span
	children []*node
}

// tree is one trace's reconstructed causal tree. Orphans — spans whose
// parent id never appears in the log, e.g. a truncated capture — are
// grafted under the root so nothing silently disappears from the
// summary; the count is reported.
type tree struct {
	trace   telemetry.SpanID
	root    *node
	total   int
	orphans int
	byKind  map[telemetry.SpanKind]int
}

// buildTrees groups spans by trace id (in first-appearance order, which
// is canonical for WriteJSONL logs) and links each group into a tree.
func buildTrees(spans []telemetry.Span) []*tree {
	var order []telemetry.SpanID
	groups := make(map[telemetry.SpanID][]telemetry.Span)
	for _, s := range spans {
		if _, ok := groups[s.Trace]; !ok {
			order = append(order, s.Trace)
		}
		groups[s.Trace] = append(groups[s.Trace], s)
	}
	out := make([]*tree, 0, len(order))
	for _, id := range order {
		out = append(out, buildTree(id, groups[id]))
	}
	return out
}

func buildTree(trace telemetry.SpanID, spans []telemetry.Span) *tree {
	tr := &tree{trace: trace, total: len(spans), byKind: make(map[telemetry.SpanKind]int)}
	byID := make(map[telemetry.SpanID]*node, len(spans))
	nodes := make([]*node, 0, len(spans))
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup {
			continue
		}
		n := &node{Span: s}
		byID[s.ID] = n
		nodes = append(nodes, n)
		tr.byKind[s.Kind]++
	}
	// Prefer the explicit batch root; otherwise the first parentless span.
	for _, n := range nodes {
		if n.Kind == telemetry.SpanBatch {
			tr.root = n
			break
		}
	}
	if tr.root == nil {
		for _, n := range nodes {
			if n.Parent == 0 || byID[n.Parent] == nil {
				tr.root = n
				break
			}
		}
	}
	for _, n := range nodes {
		if n == tr.root {
			continue
		}
		p := byID[n.Parent]
		if p == nil || p == n {
			tr.orphans++
			p = tr.root
		}
		p.children = append(p.children, n)
	}
	return tr
}

// criticalPath returns the root→leaf chain that dominates the trace's
// latency: the path maximising the leaf timestamp when the log carries a
// clock, and the deepest path (ties to the first child, i.e. canonical
// order) otherwise. Settlement and fault spans are excluded — post-batch
// bookkeeping and a fault world's record, not connection latency.
func criticalPath(tr *tree) []*node {
	var best []*node
	better := func(a, b []*node) bool {
		if b == nil {
			return true
		}
		ta, tb := a[len(a)-1].TimeMicros, b[len(b)-1].TimeMicros
		if ta != tb {
			return ta > tb
		}
		return len(a) > len(b)
	}
	var walk func(n *node, path []*node)
	walk = func(n *node, path []*node) {
		path = append(path, n)
		leaf := true
		for _, c := range n.children {
			if c.Kind == telemetry.SpanSettle || c.Kind == telemetry.SpanFault {
				continue
			}
			leaf = false
			walk(c, path)
		}
		if leaf && better(path, best) {
			best = append([]*node(nil), path...)
		}
	}
	if tr.root != nil {
		walk(tr.root, nil)
	}
	return best
}

// forwarderStat is one interior node's attribution: forwarding instances
// (hop spans it emitted), accumulated dwell time (timestamp gap from
// each of its hops to the next span in the chain), and the payoff its
// settle span recorded, when present.
type forwarderStat struct {
	node    int
	m       int
	dwellUS int64
	settled float64
	hasPay  bool
}

// attribute collects per-forwarder stats for one trace. The initiator's
// hop-0 spans are not forwarding instances (the paper credits interior
// nodes only), so hops emitted by the root's node are skipped.
func attribute(tr *tree) []forwarderStat {
	stats := make(map[int]*forwarderStat)
	get := func(id int) *forwarderStat {
		st := stats[id]
		if st == nil {
			st = &forwarderStat{node: id}
			stats[id] = st
		}
		return st
	}
	initiator := -1
	if tr.root != nil {
		initiator = tr.root.Node
	}
	var walk func(n *node)
	walk = func(n *node) {
		switch n.Kind {
		case telemetry.SpanHop:
			if n.Node != initiator {
				st := get(n.Node)
				st.m++
				if n.TimeMicros > 0 {
					for _, c := range n.children {
						if c.TimeMicros >= n.TimeMicros {
							st.dwellUS += c.TimeMicros - n.TimeMicros
							break
						}
					}
				}
			}
		case telemetry.SpanSettle:
			if pay, ok := parseSettleDetail(n.Detail); ok {
				st := get(n.Node)
				st.settled, st.hasPay = pay, true
			}
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	if tr.root != nil {
		walk(tr.root)
	}
	out := make([]forwarderStat, 0, len(stats))
	for _, st := range stats {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].node < out[j].node })
	return out
}

// parseSettleDetail decodes the payoff a settle span carries, in the one
// form every emitter writes: transport.SettleDetail's payoff=%016x, the
// payoff's exact float bits.
func parseSettleDetail(detail string) (float64, bool) {
	tok, ok := strings.CutPrefix(detail, "payoff=")
	if !ok || len(tok) != 16 {
		return 0, false
	}
	bits, err := strconv.ParseUint(tok, 16, 64)
	if err != nil {
		return 0, false
	}
	return math.Float64frombits(bits), true
}

// render prints one trace's flame summary.
func render(w io.Writer, tr *tree, pf, pr float64) {
	if tr.root == nil {
		fmt.Fprintf(w, "trace %s: %d spans, no root\n", tr.trace, tr.total)
		return
	}
	crit := criticalPath(tr)
	onCrit := make(map[*node]bool, len(crit))
	for _, n := range crit {
		onCrit[n] = true
	}
	head := fmt.Sprintf("trace %s batch=%d initiator=%d: %d spans", tr.trace, tr.root.Batch, tr.root.Node, tr.total)
	if tr.orphans > 0 {
		head += fmt.Sprintf(" (%d orphaned)", tr.orphans)
	}
	if len(crit) > 1 {
		last := crit[len(crit)-1]
		head += fmt.Sprintf("; critical path %d edges to %s@node%d", len(crit)-1, last.Kind, last.Node)
		if last.TimeMicros > 0 && tr.root.TimeMicros >= 0 {
			head += fmt.Sprintf(" in %dµs", last.TimeMicros-tr.root.TimeMicros)
		}
	}
	fmt.Fprintln(w, head)

	var emit func(n *node, depth int)
	emit = func(n *node, depth int) {
		line := strings.Repeat("  ", depth+1) + string(n.Kind)
		if n.Conn != 0 {
			line += fmt.Sprintf(" conn=%d", n.Conn)
		}
		if n.Attempt != 0 {
			line += fmt.Sprintf(" attempt=%d", n.Attempt)
		}
		if n.Kind == telemetry.SpanHop || n.Kind == telemetry.SpanRespond {
			line += fmt.Sprintf(" hop=%d", n.Hop)
		}
		line += fmt.Sprintf(" node=%d", n.Node)
		if n.TimeMicros > 0 {
			line += fmt.Sprintf(" @%dµs", n.TimeMicros)
		}
		if n.Detail != "" {
			line += " " + n.Detail
		}
		if onCrit[n] {
			line += "  *"
		}
		fmt.Fprintln(w, line)
		for _, c := range n.children {
			emit(c, depth+1)
		}
	}
	emit(tr.root, 0)

	fwd := attribute(tr)
	if len(fwd) == 0 {
		return
	}
	fmt.Fprintln(w, "  forwarders:")
	setSize := 0
	for _, st := range fwd {
		if st.m > 0 {
			setSize++
		}
	}
	for _, st := range fwd {
		line := fmt.Sprintf("    node %d: m=%d", st.node, st.m)
		if st.dwellUS > 0 {
			line += fmt.Sprintf(" dwell=%dµs", st.dwellUS)
		}
		if pf > 0 && setSize > 0 {
			line += fmt.Sprintf(" income=%.2f", float64(st.m)*pf+pr/float64(setSize))
		}
		if st.hasPay {
			line += fmt.Sprintf(" settled=%.2f", st.settled)
		}
		fmt.Fprintln(w, line)
	}
}
