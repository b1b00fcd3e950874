package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	cupid "repro"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// Reply shapes, as cupidd encodes them.

type jsonPair struct {
	Source string  `json:"source"`
	Target string  `json:"target"`
	WSim   float64 `json:"wsim"`
	SSim   float64 `json:"ssim"`
	LSim   float64 `json:"lsim"`
}

type batchResult struct {
	Name        string     `json:"name"`
	Fingerprint string     `json:"fingerprint"`
	Score       float64    `json:"score"`
	Leaves      []jsonPair `json:"leaves"`
}

type batchReply struct {
	Strategy         string        `json:"strategy"`
	CandidateBudget  int           `json:"candidate_budget"`
	CandidatesScored int           `json:"candidates_scored"`
	Cached           bool          `json:"cached"`
	Degraded         bool          `json:"degraded"`
	Family           string        `json:"family"`
	Results          []batchResult `json:"results"`
}

type matchReply struct {
	Cached    bool       `json:"cached"`
	Leaves    []jsonPair `json:"leaves"`
	NonLeaves []jsonPair `json:"nonLeaves"`
}

type schemaInfo struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
}

func pairsOf(es []cupid.MappingElement) []jsonPair {
	out := make([]jsonPair, 0, len(es))
	for _, e := range es {
		out = append(out, jsonPair{Source: e.Source.Path(), Target: e.Target.Path(), WSim: e.WSim, SSim: e.SSim, LSim: e.LSim})
	}
	return out
}

// same compares floats bit for bit: the JSON round trip of a float64 is
// exact, so any difference is a real one.
func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func diffPairs(what string, got, want []jsonPair) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s: %d elements, replica has %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Source != w.Source || g.Target != w.Target || !same(g.WSim, w.WSim) || !same(g.SSim, w.SSim) || !same(g.LSim, w.LSim) {
			return fmt.Sprintf("%s[%d]: got %+v, replica %+v", what, i, g, w)
		}
	}
	return ""
}

// diffBatch returns "" when a /match/batch reply equals the replica's:
// the retrieval it reports (strategy, budget, candidates scored, family)
// and the ranking (names, fingerprints, scores, leaf mappings).
func diffBatch(got, want batchReply) string {
	if got.Strategy != want.Strategy || got.CandidateBudget != want.CandidateBudget ||
		got.CandidatesScored != want.CandidatesScored || got.Family != want.Family {
		return fmt.Sprintf("retrieval %s/%d/%d/%q, replica %s/%d/%d/%q",
			got.Strategy, got.CandidateBudget, got.CandidatesScored, got.Family,
			want.Strategy, want.CandidateBudget, want.CandidatesScored, want.Family)
	}
	if len(got.Results) != len(want.Results) {
		return fmt.Sprintf("%d results, replica has %d", len(got.Results), len(want.Results))
	}
	for i := range got.Results {
		g, w := got.Results[i], want.Results[i]
		if g.Name != w.Name || g.Fingerprint != w.Fingerprint || !same(g.Score, w.Score) {
			return fmt.Sprintf("rank %d: got %s %s %v, replica %s %s %v", i, g.Name, g.Fingerprint, g.Score, w.Name, w.Fingerprint, w.Score)
		}
		if d := diffPairs(fmt.Sprintf("rank %d leaves", i), g.Leaves, w.Leaves); d != "" {
			return d
		}
	}
	return ""
}

// diffMatch returns "" when a /match reply equals the replica's mapping.
func diffMatch(got, want matchReply) string {
	if d := diffPairs("leaves", got.Leaves, want.Leaves); d != "" {
		return d
	}
	return diffPairs("nonLeaves", got.NonLeaves, want.NonLeaves)
}

// replica is the in-process counterpart of one cupidd: the same
// configuration (DefaultConfig, ThAccept 0.5), the same parse of the
// same bytes, and the same serving frontend. Its answers are what every
// timed reply must equal.
type replica struct {
	reg   *registry.Registry
	front *serve.Frontend
}

func benchConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Mapping.ThAccept = 0.5 // cupidd's -min default
	return cfg
}

// cupiddServeOptions are the serving options cupidd's flag defaults give.
func cupiddServeOptions() serve.Options {
	return serve.Options{
		Read:          serve.PoolOptions{MaxWait: time.Second},
		Write:         serve.PoolOptions{Slots: 2, MaxWait: time.Second},
		CacheCapacity: 1024,
		MatchDeadline: 30 * time.Second,
	}
}

func newReplica(corpus []doc, workers int) (*replica, error) {
	reg, err := registry.New(benchConfig())
	if err != nil {
		return nil, err
	}
	rp := &replica{reg: reg, front: serve.NewFrontend(reg, cupiddServeOptions())}
	return rp, rp.registerAll(corpus, workers)
}

func (rp *replica) registerAll(corpus []doc, workers int) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(corpus); i += workers {
				if err := rp.register(corpus[i]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (rp *replica) register(d doc) error {
	s, err := cupid.ParseSchema(d.name, "json", d.content)
	if err != nil {
		return fmt.Errorf("replica: parsing %s: %w", d.name, err)
	}
	if _, _, err := rp.reg.Register(d.name, s); err != nil {
		return fmt.Errorf("replica: registering %s: %w", d.name, err)
	}
	return nil
}

// prepare parses and prepares an inline document as cupidd's resolve does.
func prepare(m *core.Matcher, d doc) (*core.Prepared, error) {
	s, err := cupid.ParseSchema(d.name, "json", d.content)
	if err != nil {
		return nil, err
	}
	return m.Prepare(s)
}

// batch answers /match/batch for an inline probe the way handleBatch
// does: default planner, default budgets, topK results.
func (rp *replica) batch(d doc, topK int) (batchReply, error) {
	src, err := prepare(rp.reg.Matcher(), d)
	if err != nil {
		return batchReply{}, err
	}
	rp.front.Invalidate() // the same probe may be asked under several registry states
	res, err := rp.front.MatchBatch(context.Background(), src, batchSpec(topK))
	if err != nil {
		return batchReply{}, err
	}
	return batchReplyOf(res.Ranked, res.Stats, topK), nil
}

func batchSpec(topK int) serve.MatchSpec {
	return serve.MatchSpec{TopK: topK, Prune: registry.DefaultPruneOptions(), Index: registry.DefaultIndexOptions()}
}

func batchReplyOf(ranked []registry.Ranked, st registry.RetrievalStats, topK int) batchReply {
	out := batchReply{
		Strategy: st.Strategy.String(), CandidateBudget: st.CandidateBudget,
		CandidatesScored: st.CandidatesScored, Family: st.Family,
	}
	for _, rk := range ranked {
		if len(out.Results) == topK {
			break
		}
		out.Results = append(out.Results, batchResult{
			Name: rk.Entry.Name, Fingerprint: rk.Entry.Fingerprint, Score: rk.Score,
			Leaves: pairsOf(rk.Result.Mapping.Leaves),
		})
	}
	return out
}

// match answers /match for two inline documents.
func matchPair(m *core.Matcher, p pairInput) (matchReply, error) {
	src, err := prepare(m, p.src)
	if err != nil {
		return matchReply{}, err
	}
	dst, err := prepare(m, p.dst)
	if err != nil {
		return matchReply{}, err
	}
	res, err := m.MatchPrepared(src, dst)
	if err != nil {
		return matchReply{}, err
	}
	return matchReplyOf(res), nil
}

func matchReplyOf(res *core.Result) matchReply {
	return matchReply{Leaves: pairsOf(res.Mapping.Leaves), NonLeaves: pairsOf(res.Mapping.NonLeaves)}
}

// checkServed classifies a reply's serving flags: an error string when
// the reply must count as failed even before its content is compared.
func checkServed(r reply, cached, degraded bool) string {
	switch {
	case !r.ok():
		return r.describe()
	case cached:
		return "cached reply to a fresh input"
	case degraded:
		return "degraded reply (ranking ran under a halved budget)"
	}
	return ""
}

func decodeBatch(r reply) (batchReply, string) {
	var b batchReply
	if !r.ok() {
		return b, r.describe()
	}
	if err := json.Unmarshal(r.body, &b); err != nil {
		return b, "undecodable reply: " + err.Error()
	}
	return b, checkServed(r, b.Cached, b.Degraded)
}

func decodeMatch(r reply) (matchReply, string) {
	var m matchReply
	if !r.ok() {
		return m, r.describe()
	}
	if err := json.Unmarshal(r.body, &m); err != nil {
		return m, "undecodable reply: " + err.Error()
	}
	return m, checkServed(r, m.Cached, false)
}

// inFamily counts the results from the probe's own generator family.
func inFamily(b batchReply, family int) int {
	n := 0
	for _, r := range b.Results {
		if familyOf(r.Name) == family {
			n++
		}
	}
	return n
}

// pairF1 scores a reply's accepted leaf mapping against the generator's
// gold mapping.
func pairF1(m matchReply, gold workloads.Gold) float64 {
	pred := make([]workloads.GoldPair, len(m.Leaves))
	for i, l := range m.Leaves {
		pred[i] = workloads.GoldPair{Source: l.Source, Target: l.Target}
	}
	return eval.Score(pred, gold).F1()
}
