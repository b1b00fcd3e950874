package structural

import (
	"sync"

	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/schematree"
)

// Result holds the similarity matrices computed by TreeMatch, indexed by
// the post-order indexes of the source and target trees.
type Result struct {
	// SSim is the structural similarity; leaf entries start from the
	// data-type compatibility table and are mutated by the increase /
	// decrease steps.
	SSim matrix.Matrix
	// WSim is the weighted similarity wsim = wstruct·ssim + (1−wstruct)·lsim.
	// After TreeMatch returns, leaf entries reflect the final leaf ssim;
	// non-leaf entries are as of their (single) visit — call SecondPass to
	// recompute them for non-leaf mapping generation (paper §7).
	WSim matrix.Matrix

	// Stats.
	Comparisons int // node pairs fully compared
	Pruned      int // node pairs skipped by leaf-count pruning
	MemoHits    int // lazy-expansion reuses
	Shortcuts   int // children-shortcut fast paths taken (§8.4)
}

type matcher struct {
	ts, tt *schematree.Tree
	lsim   matrix.Matrix
	p      Params
	compat *CompatTable
	res    *Result

	// touched marks leaves whose ssim was modified by increase/decrease;
	// the lazy memo is only valid for untouched subtrees.
	touchedS []bool
	touchedT []bool
	links    *linkIndex
	memo     map[[2]string]float64
	// frontier caches the descendant basis per node.
	frontS, frontT [][]int
}

// TreeMatch runs the algorithm of Figure 3 over two expanded schema trees.
// lsim must be indexed by node post-order indexes ([sIdx][tIdx]); the core
// package derives it from element-level linguistic similarity. The
// parameter set p should satisfy p.Validate().
func TreeMatch(ts, tt *schematree.Tree, lsim matrix.Matrix, p Params) *Result {
	res := &Result{SSim: matrix.New(ts.Len(), tt.Len()), WSim: matrix.New(ts.Len(), tt.Len())}
	m := newMatcher(ts, tt, lsim, p, res)
	defer m.release()
	// The lazy memo's copy-invariance argument holds for the leaf basis
	// only (frontier and children bases include non-leaf cells whose
	// values are not copy-invariant), so it is disabled otherwise.
	if p.LazyMemo && p.StructuralBasis == BasisLeaves && p.FrontierDepth == 0 {
		m.memo = map[[2]string]float64{}
	}
	// The bitset index likewise applies only to the leaf basis.
	if p.FastStrongLinks && p.StructuralBasis == BasisLeaves && p.FrontierDepth == 0 {
		m.links = newLinkIndex(ts, tt)
	}

	// Phase 1: initialize leaf structural similarity from the data-type
	// compatibility table (value in [0, 0.5]). Embarrassingly parallel:
	// each source leaf owns its matrix row, the compat table is read-only.
	srcLeaves := ts.Leaves(ts.Root)
	tgtLeaves := tt.Leaves(tt.Root)
	par.For(len(srcLeaves), func(i int) {
		si := srcLeaves[i]
		se := ts.Nodes[si].Elem
		row := m.res.SSim.Row(si)
		for _, ti := range tgtLeaves {
			te := tt.Nodes[ti].Elem
			if m.p.LeafCompat != nil {
				if v, ok := m.p.LeafCompat(se, te); ok {
					row[ti] = v
					continue
				}
			}
			row[ti] = m.compat.Lookup(se.Type, te.Type)
		}
	})

	// Populate the strong-link index from the initialized leaf values.
	m.reindexLinks()

	// Phase 2: post-order sweep over all node pairs. Sequential by design:
	// the increase/decrease steps make later comparisons depend on earlier
	// ones, so this is where the paper's order semantics live.
	for _, s := range ts.Nodes {
		for _, t := range tt.Nodes {
			m.compare(s, t)
		}
	}

	// Refresh leaf wsim entries: increase/decrease steps after a leaf
	// pair's visit may have changed its ssim. Also embarrassingly parallel
	// (reads final ssim/lsim, writes disjoint wsim rows).
	par.For(len(srcLeaves), func(i int) {
		si := srcLeaves[i]
		wRow := m.res.WSim.Row(si)
		for _, ti := range tgtLeaves {
			wRow[ti] = m.wsimLeaf(si, ti)
		}
	})
	return res
}

// matchers pools the call-local scratch of TreeMatch and SecondPass —
// the matcher with its touched and basis arrays — so that a call
// allocates only the Result it returns. Every call takes one matcher and
// puts it back before returning.
var matchers = sync.Pool{New: func() any { return new(matcher) }}

// defaultCompat is the table read when Params.Compat is nil. It is never
// written; DefaultCompat gives callers a copy of their own to mutate.
var defaultCompat = DefaultCompat()

// newMatcher takes a matcher from the pool and sets it up for one call
// over ts and tt writing into res: cleared touched marks and the basis of
// every node.
func newMatcher(ts, tt *schematree.Tree, lsim matrix.Matrix, p Params, res *Result) *matcher {
	m := matchers.Get().(*matcher)
	*m = matcher{
		ts: ts, tt: tt, lsim: lsim, p: p, compat: p.Compat, res: res,
		touchedS: matrix.Zeroed(m.touchedS, ts.Len()),
		touchedT: matrix.Zeroed(m.touchedT, tt.Len()),
		frontS:   matrix.Zeroed(m.frontS, ts.Len()),
		frontT:   matrix.Zeroed(m.frontT, tt.Len()),
	}
	if m.compat == nil {
		m.compat = defaultCompat
	}
	for _, n := range ts.Nodes {
		m.frontS[n.Idx] = m.basis(ts, n)
	}
	for _, n := range tt.Nodes {
		m.frontT[n.Idx] = m.basis(tt, n)
	}
	return m
}

// release drops every reference the matcher holds into the call's trees,
// matrices and parameters and returns its arrays to the pool.
func (m *matcher) release() {
	clear(m.frontS)
	clear(m.frontT)
	*m = matcher{touchedS: m.touchedS, touchedT: m.touchedT, frontS: m.frontS, frontT: m.frontT}
	matchers.Put(m)
}

// basis returns the descendant set that drives structural similarity for a
// node: its leaves (default), its depth-k frontier, or its immediate
// children (ablation). For a leaf it is the node itself.
func (m *matcher) basis(tr *schematree.Tree, n *schematree.Node) []int {
	switch {
	case n.IsLeaf():
		return tr.Leaves(n) // just n, without allocating
	case m.p.StructuralBasis == BasisChildren:
		out := make([]int, len(n.Children))
		for i, c := range n.Children {
			out[i] = c.Idx
		}
		return out
	case m.p.FrontierDepth > 0:
		return tr.Frontier(n, m.p.FrontierDepth)
	}
	return tr.Leaves(n)
}

// wsimLeaf computes the current weighted similarity of a leaf (or
// pseudo-leaf basis node) pair from live ssim.
func (m *matcher) wsimLeaf(si, ti int) float64 {
	w := m.p.WStructLeaf
	return w*m.res.SSim.At(si, ti) + (1-w)*m.lsim.At(si, ti)
}

// strongLink reports whether basis nodes x,y currently have a strong link:
// weighted similarity at or above ThAccept (paper §6).
func (m *matcher) strongLink(xi, yi int) bool {
	return m.wsimLeaf(xi, yi) >= m.p.ThAccept
}

// compare processes one (s,t) pair of the post-order sweep.
func (m *matcher) compare(s, t *schematree.Node) {
	bothLeaves := s.IsLeaf() && t.IsLeaf()
	ls, lt := m.frontS[s.Idx], m.frontT[t.Idx]

	if !bothLeaves && m.p.LeafCountPruning {
		a, b := len(ls), len(lt)
		if a > b {
			a, b = b, a
		}
		if float64(b) > m.p.LeafCountRatio*float64(a) {
			m.res.Pruned++
			// Not compared: ssim stays 0, wsim records the linguistic part
			// only, no increase/decrease.
			m.res.WSim.Set(s.Idx, t.Idx, (1-m.p.WStruct)*m.lsim.At(s.Idx, t.Idx))
			return
		}
	}
	m.res.Comparisons++

	var ssim, w float64
	if bothLeaves {
		ssim = m.res.SSim.At(s.Idx, t.Idx) // initialized from the compat table
		w = m.p.WStructLeaf
	} else {
		ssim = m.structuralSim(s, t, ls, lt)
		m.res.SSim.Set(s.Idx, t.Idx, ssim)
		w = m.p.WStruct
	}
	wsim := w*ssim + (1-w)*m.lsim.At(s.Idx, t.Idx)
	m.res.WSim.Set(s.Idx, t.Idx, wsim)

	// Increase/decrease applies only to comparisons involving a non-leaf:
	// the paper's rationale is ancestor context ("leaves with highly
	// similar ancestors occur in similar contexts"), and a leaf pair is
	// not its own ancestor — letting leaf pairs adjust themselves would
	// decay every pure-structural match (zero lsim, compatible types)
	// below rescue before any ancestor is compared.
	if !bothLeaves {
		switch {
		case wsim > m.p.ThHigh:
			m.adjustLeaves(s, t, m.p.CInc)
		case wsim < m.p.ThLow:
			m.adjustLeaves(s, t, m.p.CDec)
		}
	}
}

// structuralSim estimates ssim(s,t) as the fraction of basis nodes in the
// two subtrees that have at least one strong link into the other subtree.
// With OptionalDiscount, optional leaves lacking a strong link are dropped
// from both numerator and denominator (§8.4).
func (m *matcher) structuralSim(s, t *schematree.Node, ls, lt []int) float64 {
	if m.memo != nil {
		if v, ok := m.memoLookup(s, t, ls, lt); ok {
			m.res.MemoHits++
			return v
		}
	}
	if m.p.ChildrenShortcut && !s.IsLeaf() && !t.IsLeaf() {
		if v, ok := m.childrenShortcut(s, t); ok {
			m.res.Shortcuts++
			return v
		}
	}
	linked := 0
	total := 0
	var sLo, sHi, tLo, tHi int
	if m.links != nil {
		sLo, sHi = leafRange(m.links, m.links.posS, ls)
		tLo, tHi = leafRange(m.links, m.links.posT, lt)
	}
	count := func(from []int, to []int, fromTree int, anchor *schematree.Node) {
		for _, xi := range from {
			var has bool
			switch {
			case m.links != nil && fromTree == 0:
				has = m.links.sourceHasLink(xi, tLo, tHi)
			case m.links != nil:
				has = m.links.targetHasLink(xi, sLo, sHi)
			case fromTree == 0:
				for _, yi := range to {
					if m.strongLink(xi, yi) {
						has = true
						break
					}
				}
			default:
				for _, yi := range to {
					if m.strongLink(yi, xi) {
						has = true
						break
					}
				}
			}
			if has {
				linked++
				total++
				continue
			}
			if m.p.OptionalDiscount && m.isOptionalBasis(fromTree, xi, anchor) {
				continue // dropped from numerator and denominator
			}
			total++
		}
	}
	count(ls, lt, 0, s)
	count(lt, ls, 1, t)
	var v float64
	if total > 0 {
		v = float64(linked) / float64(total)
	}
	if m.memo != nil {
		m.memoStore(s, t, ls, lt, v)
	}
	return v
}

// childrenShortcut compares the immediate children of two non-leaf nodes
// using their already-computed weighted similarities (post-order
// guarantees children were visited first). When the linked fraction is a
// very good match, it stands in for the leaf-level computation (§8.4:
// "While comparing nearly identical schemas, it might seem wasteful to
// compare the leaves ... If a very good match is detected, then the leaf
// level similarity computation is skipped").
func (m *matcher) childrenShortcut(s, t *schematree.Node) (float64, bool) {
	th := m.p.ShortcutThreshold
	if th == 0 {
		th = 0.95
	}
	linked := 0
	total := len(s.Children) + len(t.Children)
	if total == 0 {
		return 0, false
	}
	for _, cs := range s.Children {
		for _, ct := range t.Children {
			if m.res.WSim.At(cs.Idx, ct.Idx) >= m.p.ThAccept {
				linked++
				break
			}
		}
	}
	for _, ct := range t.Children {
		for _, cs := range s.Children {
			if m.res.WSim.At(cs.Idx, ct.Idx) >= m.p.ThAccept {
				linked++
				break
			}
		}
	}
	v := float64(linked) / float64(total)
	if v >= th {
		return v, true
	}
	return 0, false
}

// isOptionalBasis reports whether basis node xi (in tree fromTree: 0 =
// source, 1 = target) is optional relative to the compared ancestor.
func (m *matcher) isOptionalBasis(fromTree, xi int, anchor *schematree.Node) bool {
	var n *schematree.Node
	if fromTree == 0 {
		n = m.ts.Nodes[xi]
	} else {
		n = m.tt.Nodes[xi]
	}
	return n.IsLeaf() && n.OptionalRelativeTo(anchor)
}

// adjustLeaves multiplies the structural similarity of every leaf pair
// under (s,t) by factor, clamped to [0,1], records the touched leaves for
// lazy-memo invalidation, and keeps the strong-link index exact.
func (m *matcher) adjustLeaves(s, t *schematree.Node, factor float64) {
	for _, xi := range m.ts.Leaves(s) {
		for _, yi := range m.tt.Leaves(t) {
			v := m.res.SSim.At(xi, yi) * factor
			if v > 1 {
				v = 1
			}
			m.res.SSim.Set(xi, yi, v)
			m.touchedS[xi] = true
			m.touchedT[yi] = true
			if m.links != nil {
				m.links.set(xi, yi, m.strongLink(xi, yi))
			}
		}
	}
}

// reindexLinks rebuilds the strong-link index from the current leaf wsim
// values (used after leaf initialization and by SecondPass).
func (m *matcher) reindexLinks() {
	if m.links == nil {
		return
	}
	for _, xi := range m.ts.Leaves(m.ts.Root) {
		for _, yi := range m.tt.Leaves(m.tt.Root) {
			m.links.set(xi, yi, m.strongLink(xi, yi))
		}
	}
}

// --- lazy-expansion memoization (§8.4) --------------------------------
//
// Context copies created by type substitution or join views duplicate
// subtrees; comparing two such duplicates repeats the exact computation as
// long as none of the involved leaves has been touched by an
// increase/decrease step (the paper's argument for lazy expansion: at
// first comparison, similarity depends only on the subtrees). The memo key
// is the canonical identity of the basis leaves — a copy's leaf
// canonicalizes to the first materialized node of the same element — so
// ssim(ShipTo, BillTo') is computed once no matter how many contexts the
// shared type was expanded into. This assumes node-level lsim is
// context-independent, which holds for Cupid: lsim is computed per schema
// element and inherited by every context copy.

func canonical(tr *schematree.Tree, idx int) int {
	n := tr.Nodes[idx]
	if n.CopyOf != nil {
		return n.CopyOf.Idx
	}
	return idx
}

// sig builds the canonical signature of a basis set within one tree.
func sig(tr *schematree.Tree, basis []int) string {
	b := make([]byte, 0, 4*len(basis))
	for _, i := range basis {
		c := canonical(tr, i)
		b = append(b, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
	}
	return string(b)
}

func (m *matcher) untouched(fromTree int, basis []int) bool {
	touched := m.touchedS
	if fromTree == 1 {
		touched = m.touchedT
	}
	for _, i := range basis {
		if touched[i] {
			return false
		}
	}
	return true
}

func (m *matcher) memoLookup(s, t *schematree.Node, ls, lt []int) (float64, bool) {
	if !m.untouched(0, ls) || !m.untouched(1, lt) {
		return 0, false
	}
	v, ok := m.memo[[2]string{sig(m.ts, ls), sig(m.tt, lt)}]
	return v, ok
}

func (m *matcher) memoStore(s, t *schematree.Node, ls, lt []int, v float64) {
	if m.untouched(0, ls) && m.untouched(1, lt) {
		m.memo[[2]string{sig(m.ts, ls), sig(m.tt, lt)}] = v
	}
}

// SecondPass re-computes the structural and weighted similarity of
// non-leaf pairs from the final leaf similarities (paper §7: the updating
// of leaf similarities during tree match may affect the structural
// similarity of non-leaf nodes after they were first calculated). No
// increase/decrease steps run during the second pass.
func SecondPass(res *Result, ts, tt *schematree.Tree, lsim matrix.Matrix, p Params) {
	m := newMatcher(ts, tt, lsim, p, res)
	defer m.release()
	if p.FastStrongLinks && p.StructuralBasis == BasisLeaves && p.FrontierDepth == 0 {
		m.links = newLinkIndex(ts, tt)
		m.reindexLinks()
	}
	for _, s := range ts.Nodes {
		for _, t := range tt.Nodes {
			if s.IsLeaf() && t.IsLeaf() {
				continue
			}
			ls, lt := m.frontS[s.Idx], m.frontT[t.Idx]
			if m.p.LeafCountPruning {
				a, b := len(ls), len(lt)
				if a > b {
					a, b = b, a
				}
				if float64(b) > m.p.LeafCountRatio*float64(a) {
					continue
				}
			}
			ssim := m.structuralSim(s, t, ls, lt)
			res.SSim.Set(s.Idx, t.Idx, ssim)
			res.WSim.Set(s.Idx, t.Idx, p.WStruct*ssim+(1-p.WStruct)*lsim.At(s.Idx, t.Idx))
		}
	}
}
