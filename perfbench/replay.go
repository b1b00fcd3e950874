package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/mapping"
	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/registry"
	"repro/internal/schematree"
	"repro/internal/structural"
)

// The replay: the phases of one real call repeated through the public
// layer functions, each under a span, in the order the real code runs
// them. Its outputs are compared with the real call's; a change to that
// order or to a layer's signature shows up as a mismatch or a build
// failure here, not as a silently wrong split.

// replayPrepare repeats core.Matcher.Prepare's phases (Validate,
// schematree.Build, linguistic.Analyze) under spans and checks the tree
// against the real artifact.
func (t *tracer) replayPrepare(s *model.Schema, real *core.Prepared) (time.Duration, error) {
	var err error
	var tree *schematree.Tree
	took := t.rec.timeIt("core.Prepare", func() {
		if err = s.Validate(); err != nil {
			return
		}
		t.rec.timeIt("schematree.Build", func() { tree, err = schematree.Build(s, t.cfg.Tree) })
		if err != nil {
			return
		}
		t.rec.timeIt("linguistic.Analyze", func() { t.ling.Analyze(s) })
	})
	if err != nil {
		return took, fmt.Errorf("replaying Prepare of %s: %w", s.Name, err)
	}
	if tree.Len() != real.Tree().Len() {
		t.mismatch("replayed tree of %s has %d nodes, real %d", s.Name, tree.Len(), real.Tree().Len())
	}
	return took, nil
}

// replayMatch repeats core.Matcher.MatchPrepared (full mode, no initial
// mapping, no instance profiles: cupidd's configuration) phase by phase.
func (t *tracer) replayMatch(src, dst *core.Prepared) *core.Result {
	var res *core.Result
	t.rec.timeIt("core.MatchPrepared", func() {
		si, ti := src.Info(), dst.Info()
		var elem, lsim matrix.Matrix
		t.rec.timeIt("linguistic.LSim", func() { elem = t.ling.LSim(si, ti) })
		t.lsimCells += si.Schema.Len() * ti.Schema.Len()
		t.rec.timeIt("linguistic.BlendDescriptions", func() {
			t.ling.BlendDescriptions(si, ti, elem, t.cfg.DescriptionWeight)
		})
		t.rec.timeIt("core.lift", func() { lsim = liftToNodes(src.Tree(), dst.Tree(), elem) })
		var st *structural.Result
		t.rec.timeIt("structural.TreeMatch", func() { st = structural.TreeMatch(src.Tree(), dst.Tree(), lsim, t.cfg.Structural) })
		t.nodePairs += st.Comparisons
		if t.cfg.Mapping.NonLeaves {
			t.rec.timeIt("structural.SecondPass", func() { structural.SecondPass(st, src.Tree(), dst.Tree(), lsim, t.cfg.Structural) })
		}
		res = &core.Result{SourceTree: src.Tree(), TargetTree: dst.Tree(), SourceInfo: si, TargetInfo: ti, LSim: lsim, Struct: st, WSim: st.WSim}
		t.rec.timeIt("mapping.Generate", func() {
			res.Mapping = mapping.Generate(src.Tree(), dst.Tree(), st, lsim, t.cfg.Mapping)
		})
		t.genElements += len(res.Mapping.Leaves) + len(res.Mapping.NonLeaves)
	})
	return res
}

// liftToNodes gives every context copy of an element the element's
// similarity, as core does between LSim and TreeMatch.
func liftToNodes(ts, tt *schematree.Tree, elem matrix.Matrix) matrix.Matrix {
	out := matrix.New(ts.Len(), tt.Len())
	par.For(ts.Len(), func(i int) {
		row := elem.Row(ts.Nodes[i].Elem.ID())
		dst := out.Row(i)
		for j, n := range tt.Nodes {
			dst[j] = row[n.Elem.ID()]
		}
	})
	return out
}

// replayRank matches src against entries and orders the results as the
// registry does: score descending, ties by name, truncated to topK.
func (t *tracer) replayRank(src *core.Prepared, entries []*registry.Entry, topK int) []registry.Ranked {
	out := make([]registry.Ranked, len(entries))
	for i, e := range entries {
		var real time.Duration
		if t.calibrate && i%2 == 0 {
			real = t.realMatchPrepared(src, e)
		}
		n := len(t.rec.spans)
		res := t.replayMatch(src, e.Prepared)
		replay := t.rec.spans[n].end - t.rec.spans[n].start
		if t.calibrate && i%2 == 1 {
			real = t.realMatchPrepared(src, e)
		}
		if t.calibrate {
			t.mpDiff = append(t.mpDiff, millis(real-replay))
		}
		var sc float64
		t.rec.timeIt("registry.Score", func() { sc = registry.Score(res) })
		out[i] = registry.Ranked{Entry: e, Result: res, Score: sc}
	}
	t.rec.timeIt("registry.rank.merge", func() { out = sortRanked(out, topK) })
	return out
}

// realMatchPrepared times the real core.MatchPrepared the replay of
// src against e repeats.
func (t *tracer) realMatchPrepared(src *core.Prepared, e *registry.Entry) time.Duration {
	var err error
	took := t.rec.timeIt("core.MatchPrepared.real", func() { _, err = t.reg.Matcher().MatchPrepared(src, e.Prepared) })
	if err != nil {
		t.mismatch("real MatchPrepared against %s: %v", e.Name, err)
	}
	t.mpReal += took
	return took
}

func sortRanked(out []registry.Ranked, topK int) []registry.Ranked {
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Entry.Name < out[j].Entry.Name
	})
	if topK > 0 && topK < len(out) {
		out = out[:topK]
	}
	return out
}

// topK queries the shadow index under a span.
func (t *tracer) topK(sig model.Signature, k int) []index.Candidate {
	var cands []index.Candidate
	var st index.Stats
	t.rec.timeIt("index.TopK", func() { cands, st = t.shadow.TopK(sig, k) })
	t.topkCalls++
	t.topkScored += st.Scored
	t.topkReturned += len(cands)
	return cands
}

// replayMatchBatch repeats Registry.MatchContext for one planned probe:
// Plan, then the chosen strategy's candidate generation and ranking. It
// returns the ranking and the entries that were fully matched.
func (t *tracer) replayMatchBatch(src *core.Prepared, want int) ([]registry.Ranked, []*registry.Entry, error) {
	var (
		ranked  []registry.Ranked
		matched []*registry.Entry
		err     error
	)
	t.rec.timeIt("registry.Match", func() {
		var plan registry.Plan
		t.rec.timeIt("registry.Plan", func() {
			plan = t.reg.Plan(src, want, registry.PlanOptions{Prune: registry.DefaultPruneOptions(), Index: registry.DefaultIndexOptions()})
		})
		switch plan.Strategy {
		case registry.StrategyIndexed:
			n := t.reg.Len()
			sig := src.Signature()
			if plan.Budget >= n || len(sig.Tokens) == 0 {
				matched = t.reg.List()
			} else {
				for _, c := range t.topK(sig, plan.Budget) {
					if e, ok := t.reg.Get(c.Key); ok {
						matched = append(matched, e)
					}
				}
			}
			ranked = t.replayRank(src, matched, want)
		case registry.StrategyFamily:
			ranked, matched, err = t.replayFamily(src, want)
		case registry.StrategyPruned:
			matched = t.reg.List()
			if plan.Budget < len(matched) {
				matched = pruneByAffinity(matched, src, plan.Budget)
			}
			ranked = t.replayRank(src, matched, want)
		default:
			matched = t.reg.List()
			ranked = t.replayRank(src, matched, want)
		}
	})
	return ranked, matched, err
}

// pruneByAffinity keeps the limit entries of highest signature affinity
// to src, ties by name (the pruned strategy's candidate generation).
func pruneByAffinity(entries []*registry.Entry, src *core.Prepared, limit int) []*registry.Entry {
	sig := src.Signature()
	affs := make([]float64, len(entries))
	for i, e := range entries {
		affs[i] = sig.Affinity(e.Prepared.Signature())
	}
	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		if affs[order[i]] != affs[order[j]] {
			return affs[order[i]] > affs[order[j]]
		}
		return entries[order[i]].Name < entries[order[j]].Name
	})
	out := make([]*registry.Entry, limit)
	for i := range out {
		out[i] = entries[order[i]]
	}
	return out
}

// replayFamily repeats the family route: match every family medoid,
// then every member of the best medoid's family, and merge.
func (t *tracer) replayFamily(src *core.Prepared, want int) ([]registry.Ranked, []*registry.Entry, error) {
	fams := t.reg.Families()
	if fams == nil || !t.reg.FamiliesFresh() {
		return nil, nil, fmt.Errorf("family route planned without a fresh clustering")
	}
	var medoids []*registry.Entry
	for _, f := range fams.Families {
		if e, ok := t.reg.Get(f.Medoid); ok {
			medoids = append(medoids, e)
		}
	}
	t.medoids += len(medoids)
	medRanked := t.replayRank(src, medoids, 0)
	winner := medRanked[0].Entry.Name
	var members []*registry.Entry
	for _, f := range fams.Families {
		if f.Medoid != winner {
			continue
		}
		for _, name := range f.Members {
			if e, ok := t.reg.Get(name); ok && name != winner {
				members = append(members, e)
			}
		}
	}
	ranked := t.replayRank(src, members, 0)
	var merged []registry.Ranked
	t.rec.timeIt("registry.rank.merge", func() { merged = sortRanked(append(ranked, medRanked...), want) })
	return merged, append(medoids, members...), nil
}
