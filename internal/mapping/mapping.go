// Package mapping implements Cupid's mapping generation (paper §7): from
// the computed linguistic and structural similarities, it produces the set
// of mapping elements (correspondences) between schema-tree nodes.
//
// The naive scheme is leaf-level and 1:n — for each leaf in the target
// schema, the source leaf with the highest weighted similarity is returned
// if it is acceptable (wsim >= thaccept); a source leaf may map to many
// target leaves. The paper notes that downstream tools (e.g. query
// discovery) may need 1:1 mappings instead, so a greedy 1:1 generator is
// provided as well. Non-leaf mappings require the similarities to have
// been re-computed by a second post-order traversal (structural.SecondPass)
// before generation.
package mapping

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/matrix"
	"repro/internal/schematree"
	"repro/internal/structural"
)

// Cardinality selects the mapping generator's output discipline.
type Cardinality int

const (
	// OneToN is the paper's naive scheme: best acceptable source per
	// target; sources may repeat.
	OneToN Cardinality = iota
	// OneToOne restricts each source and target node to at most one
	// mapping element, chosen greedily by descending similarity.
	OneToOne
)

// Element is one mapping element: a correspondence between a source and a
// target schema-tree node, annotated with the similarities that produced
// it. Mappings are non-directional (the paper treats them so); source and
// target only name the two input schemas.
type Element struct {
	Source *schematree.Node
	Target *schematree.Node
	WSim   float64
	SSim   float64
	LSim   float64
}

// String renders "sourcePath <-> targetPath (wsim)".
func (e Element) String() string {
	return fmt.Sprintf("%s <-> %s (%.3f)", e.Source.Path(), e.Target.Path(), e.WSim)
}

// Mapping is the result of the Match operation: a set of mapping elements.
type Mapping struct {
	SourceSchema string
	TargetSchema string
	// Leaves holds the leaf-level mapping elements, ordered by target
	// post-order index.
	Leaves []Element
	// NonLeaves holds mapping elements between non-leaf nodes (present
	// when requested), ordered by target post-order index.
	NonLeaves []Element
}

// All returns leaf and non-leaf elements together.
func (m *Mapping) All() []Element {
	out := make([]Element, 0, len(m.Leaves)+len(m.NonLeaves))
	out = append(out, m.Leaves...)
	out = append(out, m.NonLeaves...)
	return out
}

// HasPair reports whether the mapping contains a correspondence between
// the given source and target paths (leaf or non-leaf).
func (m *Mapping) HasPair(sourcePath, targetPath string) bool {
	for _, e := range m.All() {
		if e.Source.Path() == sourcePath && e.Target.Path() == targetPath {
			return true
		}
	}
	return false
}

// String renders the mapping as a readable table.
func (m *Mapping) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mapping %s -> %s (%d leaf, %d non-leaf)\n",
		m.SourceSchema, m.TargetSchema, len(m.Leaves), len(m.NonLeaves))
	for _, e := range m.NonLeaves {
		fmt.Fprintf(&b, "  [struct] %s\n", e)
	}
	for _, e := range m.Leaves {
		fmt.Fprintf(&b, "  [leaf]   %s\n", e)
	}
	return b.String()
}

// Options controls generation.
type Options struct {
	// ThAccept is the acceptance threshold on wsim (Table 1: 0.5).
	ThAccept float64
	// Cardinality selects 1:n (paper default) or 1:1 output.
	Cardinality Cardinality
	// NonLeaves also emits mappings between non-leaf nodes. The caller
	// must have run structural.SecondPass first so non-leaf similarities
	// reflect the final leaf similarities.
	NonLeaves bool
	// IncludeJoinViews keeps mapping elements whose source or target is a
	// synthetic join-view node (on by default in the core facade; they are
	// how referential-constraint matches such as Orders⋈OrderDetails→Sales
	// surface).
	IncludeJoinViews bool
}

// DefaultOptions returns the paper's naive generator configuration.
func DefaultOptions() Options {
	return Options{ThAccept: 0.5, Cardinality: OneToN, NonLeaves: true, IncludeJoinViews: true}
}

// Generate produces a mapping from TreeMatch results.
func Generate(ts, tt *schematree.Tree, res *structural.Result, lsim matrix.Matrix, opt Options) *Mapping {
	sc := scratches.Get().(*scratch)
	defer sc.release()
	m := &Mapping{SourceSchema: ts.Schema.Name, TargetSchema: tt.Schema.Name}
	switch opt.Cardinality {
	case OneToOne:
		m.Leaves = generateOneToOne(sc, ts, tt, res, lsim, opt, true)
		if opt.NonLeaves {
			m.NonLeaves = generateOneToOne(sc, ts, tt, res, lsim, opt, false)
		}
	default:
		m.Leaves = generateOneToN(sc, ts, tt, res, lsim, opt, true)
		if opt.NonLeaves {
			m.NonLeaves = generateOneToN(sc, ts, tt, res, lsim, opt, false)
		}
	}
	return m
}

// scratch is one Generate call's working storage: the margin table and
// the elements being collected. It is pooled, so that a call allocates
// only the Mapping it returns.
type scratch struct {
	be  bestElsewhere
	out []Element
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// release drops the collected elements' node references and returns the
// scratch to the pool.
func (sc *scratch) release() {
	clear(sc.out[:cap(sc.out)])
	sc.out = sc.out[:0]
	scratches.Put(sc)
}

func eligible(n *schematree.Node, leaves bool, opt Options) bool {
	if n.IsLeaf() != leaves {
		return false
	}
	if n.IsJoinView && !opt.IncludeJoinViews {
		return false
	}
	return true
}

// parentWSim is the context tie-break key for leaf generation: the
// weighted similarity of the two nodes' parents. When several source
// leaves tie on wsim (common for context copies of one shared type), the
// one whose parent matches the target's parent best wins — the
// context-dependent choice. Non-leaf generation does not use it: container
// similarities against the root are inflated by construction.
func parentWSim(res *structural.Result, s, t *schematree.Node) float64 {
	if s.Parent == nil || t.Parent == nil {
		return 0
	}
	return res.WSim.At(s.Parent.Idx, t.Parent.Idx)
}

// bestElsewhere precomputes, per eligible source node, its best and
// second-best wsim over eligible targets plus the argmax target. Used as a
// margin tie-break: among sources tied for a target, the one whose best
// alternative is weakest "needs" the target most (e.g. Figure 2's Line and
// Qty tie for ItemNumber structurally, but Qty already has Quantity at a
// much higher wsim, so Line takes ItemNumber). The tie-break is
// declaration-order independent.
type bestElsewhere struct {
	max    []float64
	second []float64
	argmax []int
}

func computeBestElsewhere(sc *scratch, ts, tt *schematree.Tree, res *structural.Result, opt Options, leaves bool) bestElsewhere {
	be := bestElsewhere{
		max:    matrix.Zeroed(sc.be.max, ts.Len()),
		second: matrix.Zeroed(sc.be.second, ts.Len()),
		argmax: matrix.Zeroed(sc.be.argmax, ts.Len()),
	}
	sc.be = be
	for i := range be.argmax {
		be.argmax[i] = -1
	}
	for _, s := range ts.Nodes {
		if !eligible(s, leaves, opt) {
			continue
		}
		for _, t := range tt.Nodes {
			if !eligible(t, leaves, opt) {
				continue
			}
			w := res.WSim.At(s.Idx, t.Idx)
			switch {
			case w > be.max[s.Idx]:
				be.second[s.Idx] = be.max[s.Idx]
				be.max[s.Idx] = w
				be.argmax[s.Idx] = t.Idx
			case w > be.second[s.Idx]:
				be.second[s.Idx] = w
			}
		}
	}
	return be
}

// other returns the source's best wsim over targets other than t.
func (be bestElsewhere) other(s, t int) float64 {
	if be.argmax[s] == t {
		return be.second[s]
	}
	return be.max[s]
}

// generateOneToN implements the paper's naive scheme: for each target node
// the best acceptable source node (ties broken by parent context, then by
// the margin rule, then post-order index).
func generateOneToN(sc *scratch, ts, tt *schematree.Tree, res *structural.Result, lsim matrix.Matrix, opt Options, leaves bool) []Element {
	be := computeBestElsewhere(sc, ts, tt, res, opt, leaves)
	sc.out = sc.out[:0]
	for _, t := range tt.Nodes {
		if !eligible(t, leaves, opt) {
			continue
		}
		best := -1
		bestW := 0.0
		bestPW := 0.0
		bestOther := 0.0
		for _, s := range ts.Nodes {
			if !eligible(s, leaves, opt) {
				continue
			}
			w := res.WSim.At(s.Idx, t.Idx)
			if w < opt.ThAccept {
				continue
			}
			pw := 0.0
			if leaves {
				pw = parentWSim(res, s, t)
			}
			other := be.other(s.Idx, t.Idx)
			if w > bestW ||
				(w == bestW && pw > bestPW) ||
				(w == bestW && pw == bestPW && best >= 0 && other < bestOther) {
				bestW, bestPW, bestOther, best = w, pw, other, s.Idx
			}
		}
		if best >= 0 {
			sc.out = append(sc.out, Element{
				Source: ts.Nodes[best],
				Target: t,
				WSim:   bestW,
				SSim:   res.SSim.At(best, t.Idx),
				LSim:   lsim.At(best, t.Idx),
			})
		}
	}
	return append([]Element(nil), sc.out...) // exact size; nil when empty
}

// generateOneToOne greedily picks the globally best acceptable pairs,
// consuming each source and target at most once. Ties break on post-order
// indexes for determinism.
func generateOneToOne(sc *scratch, ts, tt *schematree.Tree, res *structural.Result, lsim matrix.Matrix, opt Options, leaves bool) []Element {
	be := computeBestElsewhere(sc, ts, tt, res, opt, leaves)
	type cand struct {
		s, t  int
		w     float64
		pw    float64
		other float64
	}
	var cands []cand
	for _, s := range ts.Nodes {
		if !eligible(s, leaves, opt) {
			continue
		}
		for _, t := range tt.Nodes {
			if !eligible(t, leaves, opt) {
				continue
			}
			if w := res.WSim.At(s.Idx, t.Idx); w >= opt.ThAccept {
				pw := 0.0
				if leaves {
					pw = parentWSim(res, s, t)
				}
				cands = append(cands, cand{s.Idx, t.Idx, w, pw, be.other(s.Idx, t.Idx)})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].w != cands[j].w {
			return cands[i].w > cands[j].w
		}
		if cands[i].pw != cands[j].pw {
			return cands[i].pw > cands[j].pw
		}
		if cands[i].other != cands[j].other {
			return cands[i].other < cands[j].other // margin rule
		}
		if cands[i].t != cands[j].t {
			return cands[i].t < cands[j].t
		}
		return cands[i].s < cands[j].s
	})
	usedS := map[int]bool{}
	usedT := map[int]bool{}
	var out []Element
	for _, c := range cands {
		if usedS[c.s] || usedT[c.t] {
			continue
		}
		usedS[c.s] = true
		usedT[c.t] = true
		out = append(out, Element{
			Source: ts.Nodes[c.s],
			Target: tt.Nodes[c.t],
			WSim:   c.w,
			SSim:   res.SSim.At(c.s, c.t),
			LSim:   lsim.At(c.s, c.t),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Target.Idx < out[j].Target.Idx })
	return out
}
