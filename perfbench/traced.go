package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	cupid "repro"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/linguistic"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/registry"
	"repro/internal/serve"
)

// The traced run. It performs a fixed list of operations in-process
// through the public functions cupidd calls (Persistent.RegisterSource,
// Frontend.MatchBatch, Frontend.MatchPair, Registry.ClusterFamilies),
// on a registry opened like cupidd's, in three passes:
//
//	A  untraced, default worker count: the in-process time cupidd's HTTP
//	   and JSON layer is compared against (cupidd.overhead_ms), and the
//	   replica every HTTP reply of the same operations is checked against;
//	B  untraced, one worker: the baseline of trace.overhead_pct and the
//	   runtime allocation and GC figures;
//	C  traced, one worker: each real operation under a span, then a
//	   replay calling the public layer functions in core.MatchPrepared's
//	   order (LSim, BlendDescriptions, node lift, TreeMatch, SecondPass,
//	   Generate) plus Score, the planner and a shadow index for TopK,
//	   each under a span. The replay's outputs must equal the real
//	   call's; its span self times are the per-layer split.
//
// With one worker and one operation at a time, spans never overlap and
// self times add up.

const (
	tracedOps  = 40  // timed operations per pass; enough that trace.coverage's timing noise stays a few percent
	tracedRegs = 200 // corpus registrations traced (the last ones)
	regShards  = 16  // registry's index shard count; the replay's TopK must equal the registry's
)

// counts are gathered in the traced pass.
type counts struct {
	probes, strategyFamily, strategyIndexed, strategyPruned, strategyExact int
	budget, matched, returned, medoids                                     int
	topkCalls, topkScored, topkReturned                                    int
	lsimCells, nodePairs, genElements                                      int
	regFailed                                                              int
	regReal, regReplay, mpReal                                             time.Duration
	// Per-operation differences of two real calls (serve layer) and of a
	// real call and its replay (MatchPrepared outside the replayed phases).
	serveBatchDiff, servePairDiff, mpDiff []float64
	// Coverage: real operation time, the named layers' time that
	// explains it, and the self time of unnamed parent spans (glue).
	opTime, layerTime, glue time.Duration
	// Pass B's and pass C's total time of the same operations.
	untraced, passC time.Duration
}

// tracer is the in-process side of a traced run.
type tracer struct {
	r      *runner
	rec    *recorder
	cfg    core.Config
	p      *registry.Persistent
	reg    *registry.Registry
	front  *serve.Frontend
	ling   *linguistic.Matcher // the replay's linguistic matcher
	shadow *index.Index        // the replay's index, maintained beside the registry's

	counts
	calibrate bool // time the real MatchPrepared beside each replayed one
}

func (r *runner) newTracer() (*tracer, error) {
	cfg := benchConfig()
	m, err := core.NewMatcher(cfg)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(r.dir, "traced")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p, _, err := registry.OpenPersistentOptions(dir, m, registry.DefaultPersistOptions(), cupid.ParseSchema)
	if err != nil {
		return nil, err
	}
	ling := linguistic.NewMatcher(cfg.Thesaurus)
	ling.P = cfg.Linguistic
	return &tracer{
		r: r, rec: newRecorder(), cfg: cfg, p: p, reg: p.Registry,
		front:  serve.NewFrontend(p.Registry, cupiddServeOptions()),
		ling:   ling,
		shadow: index.New(regShards),
	}, nil
}

func (t *tracer) close() error { return t.p.Close() }

// mismatch records a replay or replica disagreement.
func (t *tracer) mismatch(format string, args ...any) {
	t.r.rep.incorrect(format, args...)
}

// register is one in-process registration as cupidd's handler performs
// it: write admission, RegisterSource, cache invalidation. It returns the
// operation's and RegisterSource's durations.
func (t *tracer) register(rec *recorder, d doc) (op, call time.Duration, err error) {
	op = rec.timeIt("op", func() {
		var release func()
		release, err = t.front.AcquireWrite(context.Background())
		if err != nil {
			return
		}
		defer release()
		call = rec.timeIt("registry.RegisterSource", func() {
			var e *registry.Entry
			e, _, err = t.p.RegisterSource(d.name, "json", d.content)
			if err == nil && e.Fingerprint != d.fp {
				err = fmt.Errorf("registered fingerprint %s, want %s", e.Fingerprint, d.fp)
			}
		})
		t.front.Invalidate()
	})
	if err != nil {
		return op, call, fmt.Errorf("registering %s: %w", d.name, err)
	}
	e, _ := t.reg.Get(d.name)
	t.shadow.Upsert(e.Name, e.Fingerprint, e.Prepared.Signature())
	return op, call, nil
}

// registerTraced registers d under spans and replays its parse and
// Prepare, so RegisterSource's own time (journal, fsync, index upsert)
// is the real call minus the replayed phases. It returns the
// operation's time and RegisterSource's own time.
func (t *tracer) registerTraced(d doc) (op, own time.Duration, err error) {
	op, call, err := t.register(t.rec, d)
	if err != nil {
		t.regFailed++
		return op, 0, err
	}
	var s *model.Schema
	replay := t.rec.timeIt("parse", func() { s, err = cupid.ParseSchema(d.name, "json", d.content) })
	if err != nil {
		return op, 0, err
	}
	e, _ := t.reg.Get(d.name)
	dur, err := t.replayPrepare(s, e.Prepared)
	replay += dur
	t.regReal += call
	t.regReplay += replay
	return op, call - replay, err
}

// registerCorpus registers the corpus untraced from the client count of
// goroutines, except the last tracedRegs documents, which are traced one
// at a time.
func (t *tracer) registerCorpus(docs []doc) error {
	split := len(docs) - tracedRegs
	if split < 0 {
		split = 0
	}
	errs := make([]error, t.r.clients)
	done := make(chan struct{}, t.r.clients)
	for w := 0; w < t.r.clients; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := w; i < split; i += t.r.clients {
				if _, _, err := t.register(nil, docs[i]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	for w := 0; w < t.r.clients; w++ {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			t.regFailed++
			return err
		}
	}
	for _, d := range docs[split:] {
		if _, _, err := t.registerTraced(d); err != nil {
			return err
		}
	}
	return nil
}

// namedLayers are the spans of the per-layer split. trace.coverage adds
// their self times; the self time of the other parent spans (the real
// operation's own code outside its parse, Prepare and Frontend call, and
// the replay's candidate loop in registry.Match) is glue, reported
// apart. Spans named *.real time real calls for a difference and count
// as neither.
var (
	namedLayers = []string{
		"parse", "core.Prepare", "schematree.Build", "linguistic.Analyze",
		"registry.Plan", "index.TopK", "corpus.Cluster", "registry.rank.merge",
		"core.MatchPrepared", "linguistic.LSim", "linguistic.BlendDescriptions", "core.lift",
		"structural.TreeMatch", "structural.SecondPass", "mapping.Generate", "registry.Score",
	}
	glueSpans = []string{"op", "registry.Match"}
)

// account adds one traced operation to trace.coverage: its real time,
// the named layers' self time among the spans recorded from index from
// on plus own, a layer's own time measured as the difference of two
// real calls (serve's, RegisterSource's), and the glue.
func (t *tracer) account(from int, real, own time.Duration) {
	L := summarize(t.rec.spans, from)
	t.opTime += real
	t.layerTime += own
	for _, name := range namedLayers {
		if l := L[name]; l != nil {
			t.layerTime += l.self
		}
	}
	for _, name := range glueSpans {
		if l := L[name]; l != nil {
			t.glue += l.self
		}
	}
}

// probeResult is one in-process /match/batch: the reply cupidd would
// encode, and what the real call reported.
type probeResult struct {
	reply batchReply
	stats registry.RetrievalStats
	src   *core.Prepared
}

// probeOp performs /match/batch's work in-process: parse, Prepare,
// Frontend.MatchBatch (the cache invalidated first, since every pass
// repeats the operation).
func (t *tracer) probeOp(rec *recorder, d doc) (probeResult, time.Duration, error) {
	t.front.Invalidate()
	var (
		out probeResult
		err error
	)
	took := rec.timeIt("op", func() {
		var s *model.Schema
		rec.timeIt("parse", func() { s, err = cupid.ParseSchema(d.name, "json", d.content) })
		if err != nil {
			return
		}
		rec.timeIt("core.Prepare.real", func() { out.src, err = t.reg.Matcher().Prepare(s) })
		if err != nil {
			return
		}
		var res serve.Result
		rec.timeIt("serve.MatchBatch", func() { res, err = t.front.MatchBatch(context.Background(), out.src, batchSpec(topK)) })
		if err != nil {
			return
		}
		if res.Cached {
			err = fmt.Errorf("in-process MatchBatch answered from the cache")
		}
		out.reply, out.stats = batchReplyOf(res.Ranked, res.Stats, topK), res.Stats
	})
	return out, took, err
}

// probeTraced runs probeOp under spans, the real registry.Match
// (serve.MatchBatch's own time is the difference), and the replay, with
// the real MatchPrepared of every replayed candidate timed beside its
// replay (core.MatchPrepared's time outside the replayed phases is the
// difference). The order alternates between operations, and between
// candidates, so whichever call runs first on cold caches does not bias
// the differences.
func (t *tracer) probeTraced(i int, d doc) error {
	s, err := cupid.ParseSchema(d.name, "json", d.content)
	if err != nil {
		return err
	}
	var (
		src                        *core.Prepared
		pr                         probeResult
		took, serveTime, realMatch time.Duration
		ranked, replayRanked       []registry.Ranked
		matched                    []*registry.Entry
	)
	from := len(t.rec.spans)
	runOp := func() error {
		n := len(t.rec.spans)
		pr, took, err = t.probeOp(t.rec, d)
		t.passC += took
		serveTime = summarize(t.rec.spans, n)["serve.MatchBatch"].total
		return err
	}
	runMatch := func() error {
		if src, err = t.fresh(s); err != nil {
			return err
		}
		realMatch = t.rec.timeIt("registry.Match.real", func() {
			ranked, _, err = t.reg.Match(src, topK, registry.PlanOptions{Prune: registry.DefaultPruneOptions(), Index: registry.DefaultIndexOptions()})
		})
		return err
	}
	runReplay := func() error {
		if src, err = t.fresh(s); err != nil {
			return err
		}
		if _, err = t.replayPrepare(s, src); err != nil {
			return err
		}
		t.calibrate = true
		replayRanked, matched, err = t.replayMatchBatch(src, topK)
		t.calibrate = false
		return err
	}
	steps := []func() error{runOp, runMatch, runReplay}
	if i%2 == 1 {
		steps[0], steps[2] = steps[2], steps[0]
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	if d := diffBatch(batchReplyOf(ranked, pr.stats, topK), pr.reply); d != "" {
		t.mismatch("registry.Match differs from Frontend.MatchBatch: %s", d)
	}
	if d := diffBatch(batchReplyOf(replayRanked, pr.stats, topK), pr.reply); d != "" {
		t.mismatch("replay of probe differs from the real call: %s", d)
	}
	t.probes++
	switch pr.stats.Strategy {
	case registry.StrategyFamily:
		t.strategyFamily++
	case registry.StrategyIndexed:
		t.strategyIndexed++
	case registry.StrategyPruned:
		t.strategyPruned++
	default:
		t.strategyExact++
	}
	t.budget += pr.stats.CandidateBudget
	t.matched += len(matched)
	t.returned += len(ranked)
	t.serveBatchDiff = append(t.serveBatchDiff, millis(serveTime-realMatch))
	t.account(from, took, serveTime-realMatch)
	return nil
}

// pairOp performs /match's work in-process: parse and Prepare both
// inline schemas, Frontend.MatchPair.
func (t *tracer) pairOp(rec *recorder, p pairInput) (matchReply, [2]*core.Prepared, time.Duration, error) {
	t.front.Invalidate()
	var (
		out  matchReply
		prep [2]*core.Prepared
		err  error
	)
	took := rec.timeIt("op", func() {
		for k, d := range []doc{p.src, p.dst} {
			var s *model.Schema
			rec.timeIt("parse", func() { s, err = cupid.ParseSchema(d.name, "json", d.content) })
			if err != nil {
				return
			}
			rec.timeIt("core.Prepare.real", func() { prep[k], err = t.reg.Matcher().Prepare(s) })
			if err != nil {
				return
			}
		}
		var res *core.Result
		var cached bool
		rec.timeIt("serve.MatchPair", func() { res, cached, err = t.front.MatchPair(context.Background(), prep[0], prep[1]) })
		if err == nil && cached {
			err = fmt.Errorf("in-process MatchPair answered from the cache")
		}
		if err == nil {
			out = matchReplyOf(res)
		}
	})
	return out, prep, took, err
}

// fresh prepares s untimed. The real call, its calibration and its
// replay each match fresh artifacts, as cupidd does for inline schemas:
// an artifact computes some token data on its first match, which a
// reused artifact would skip.
func (t *tracer) fresh(s *model.Schema) (*core.Prepared, error) {
	return t.reg.Matcher().Prepare(s)
}

func (t *tracer) pairTraced(i int, p pairInput) error {
	var (
		schemas [2]*model.Schema
		prep    [2]*core.Prepared
		err     error
	)
	for k, d := range []doc{p.src, p.dst} {
		if schemas[k], err = cupid.ParseSchema(d.name, "json", d.content); err != nil {
			return err
		}
	}
	freshPair := func() error {
		for k := range schemas {
			if prep[k], err = t.fresh(schemas[k]); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		want                            matchReply
		took, serveTime, realMP, replay time.Duration
		res                             *core.Result
	)
	from := len(t.rec.spans)
	runOp := func() error {
		n := len(t.rec.spans)
		want, _, took, err = t.pairOp(t.rec, p)
		t.passC += took
		serveTime = summarize(t.rec.spans, n)["serve.MatchPair"].total
		return err
	}
	runMP := func() error {
		if err := freshPair(); err != nil {
			return err
		}
		realMP = t.rec.timeIt("core.MatchPrepared.real", func() { _, err = t.reg.Matcher().MatchPrepared(prep[0], prep[1]) })
		return err
	}
	runReplay := func() error {
		if err := freshPair(); err != nil {
			return err
		}
		for k := range schemas {
			if _, err := t.replayPrepare(schemas[k], prep[k]); err != nil {
				return err
			}
		}
		m := len(t.rec.spans)
		res = t.replayMatch(prep[0], prep[1])
		replay = t.rec.spans[m].end - t.rec.spans[m].start
		return nil
	}
	steps := []func() error{runOp, runMP, runReplay}
	if i%2 == 1 {
		steps[0], steps[2] = steps[2], steps[0]
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	if d := diffMatch(matchReplyOf(res), want); d != "" {
		t.mismatch("replay of pair differs from the real call: %s", d)
	}
	t.servePairDiff = append(t.servePairDiff, millis(serveTime-realMP))
	t.mpDiff = append(t.mpDiff, millis(realMP-replay))
	t.account(from, took, serveTime-realMP)
	return nil
}

// clusterOp performs a clustering job's work in-process:
// ClusterFamilies, StoreFamilies, cache invalidation.
func (t *tracer) clusterOp(rec *recorder) ([]byte, time.Duration, error) {
	var (
		raw []byte
		err error
	)
	took := rec.timeIt("op", func() {
		var res *corpus.Result
		rec.timeIt("registry.ClusterFamilies", func() { res, err = t.reg.ClusterFamilies(corpus.Options{}) })
		if err != nil {
			return
		}
		if err = t.p.StoreFamilies(res); err != nil {
			return
		}
		t.front.Invalidate()
		raw, err = res.Encode()
	})
	return raw, took, err
}

// clusterTraced runs clusterOp under spans, then replays corpus.Cluster
// with a neighbour function over the shadow index.
func (t *tracer) clusterTraced() ([]byte, error) {
	from := len(t.rec.spans)
	raw, took, err := t.clusterOp(t.rec)
	if err != nil {
		return nil, err
	}
	entries := t.reg.List()
	items := make([]corpus.Item, len(entries))
	for i, e := range entries {
		items[i] = corpus.Item{Key: e.Name, Sig: e.Prepared.Signature()}
	}
	var res *corpus.Result
	t.rec.timeIt("corpus.Cluster", func() {
		res = corpus.Cluster(items, func(sig model.Signature, k int) []corpus.Neighbor {
			cands := t.topK(sig, k)
			out := make([]corpus.Neighbor, len(cands))
			for i, c := range cands {
				out[i] = corpus.Neighbor{Key: c.Key, Affinity: c.Affinity}
			}
			return out
		}, corpus.Options{})
	})
	got, err := res.Encode()
	if err != nil {
		return nil, err
	}
	if string(got) != string(raw) {
		t.mismatch("replayed clustering's families bytes differ from the real ClusterFamilies call")
	}
	t.account(from, took, 0)
	return raw, nil
}

// passes runs the untraced passes A and B over ops and returns pass A's
// per-operation times; op performs operation i without spans.
func (t *tracer) passes(n int, op func(i int, check bool) (time.Duration, error)) ([]float64, error) {
	prev := par.SetMaxWorkers(0)
	defer par.SetMaxWorkers(prev)
	a := make([]float64, n)
	for i := 0; i < n; i++ {
		took, err := op(i, true)
		if err != nil {
			return nil, err
		}
		a[i] = millis(took)
	}
	par.SetMaxWorkers(1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var b time.Duration
	for i := 0; i < n; i++ {
		took, err := op(i, false)
		if err != nil {
			return nil, err
		}
		b += took
	}
	runtime.ReadMemStats(&after)
	t.untraced = b
	rep := t.r.rep
	rep.add("runtime.allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(n), "count")
	rep.add("runtime.alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(n)/(1<<20), "MiB")
	rep.add("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/float64(n)/1e6, "ms")
	return a, nil
}

// httpPhase sets cupidd up on the corpus, then sends n traced
// operations' HTTP requests one at a time over one connection. It
// returns each reply with its latency, for cupidd.overhead_ms,
// cupidd.response_kb and the check against pass A.
func (r *runner) httpPhase(docs []doc, warm func(*conns) error, extra func(c *conns) error, n int, send func(c *conns, i int) reply) ([]reply, []float64, error) {
	dataDir := filepath.Join(r.dir, "http")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, nil, err
	}
	d, _, err := launch(r.opt.cupidd, dataDir, filepath.Join(r.dir, "cupidd.log"))
	if err != nil {
		return nil, nil, err
	}
	r.flags = d.args
	c := newConns(d.base, r.clients)
	defer c.close()
	err = registerCorpus(c, docs, r.clients)
	if err == nil {
		err = warm(c)
	}
	if err == nil && extra != nil {
		err = extra(c)
	}
	if err != nil {
		d.stop()
		return nil, nil, err
	}
	one := newConns(d.base, 1)
	defer one.close()
	reps := make([]reply, n)
	lat := make([]float64, n)
	for i := range reps {
		o := r.clk.timed(i, func() reply { return send(one, i) })
		reps[i], lat[i] = o.rep, millis(o.latency())
	}
	return reps, lat, d.stop()
}

// emit adds every per-layer metric. httpLat and inproc are the HTTP and
// pass A times of the same operations; respBytes their reply sizes.
func (t *tracer) emit(httpLat, inproc []float64, respBytes int) {
	rep := t.r.rep
	L := summarize(t.rec.spans, 0)
	get := func(name string) *layerTotals {
		if l := L[name]; l != nil {
			return l
		}
		return &layerTotals{}
	}
	ms := func(d time.Duration) float64 { return millis(d) }
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	perProbe := func(x int) float64 { return ratio(x, t.probes) }

	rep.add("cupidd.overhead_ms", median(httpLat)-median(inproc), "ms")
	rep.add("cupidd.response_kb", float64(respBytes)/float64(len(httpLat))/1024, "KiB")
	rep.add("parse.calls", float64(get("parse").calls), "count")
	rep.add("parse.self_ms", ms(get("parse").self), "ms")
	rep.add("core.Prepare.calls", float64(get("core.Prepare").calls), "count")
	rep.add("core.Prepare.self_ms", ms(get("core.Prepare").self), "ms")
	rep.add("schematree.Build.self_ms", ms(get("schematree.Build").self), "ms")
	rep.add("linguistic.Analyze.self_ms", ms(get("linguistic.Analyze").self), "ms")
	rep.add("registry.RegisterSource.self_ms", ms(t.regReal-t.regReplay), "ms")
	rep.add("registry.RegisterSource.failed", float64(t.regFailed), "count")
	rep.add("serve.MatchBatch.self_ms", medianOr0(t.serveBatchDiff), "ms")
	rep.add("serve.MatchPair.self_ms", medianOr0(t.servePairDiff), "ms")
	fs := t.front.Stats()
	rep.add("serve.cache.hit_ratio", ratio(int(fs.Cache.Hits), int(fs.Cache.Hits+fs.Cache.Misses)), "ratio")
	rep.add("serve.read.rejected", float64(fs.Read.RejectedFull+fs.Read.RejectedWait), "count")
	rep.add("serve.degraded", float64(fs.DegradedMatches), "count")
	rep.add("registry.Plan.self_us", us(get("registry.Plan").self), "us")
	rep.add("registry.Plan.budget", perProbe(t.budget), "count")
	rep.add("registry.Plan.strategy.exact", float64(t.strategyExact), "count")
	rep.add("registry.Plan.strategy.pruned", float64(t.strategyPruned), "count")
	rep.add("registry.Plan.strategy.indexed", float64(t.strategyIndexed), "count")
	rep.add("registry.Plan.strategy.family", float64(t.strategyFamily), "count")
	rep.add("index.TopK.calls", float64(t.topkCalls), "count")
	rep.add("index.TopK.self_ms", ms(get("index.TopK").self), "ms")
	rep.add("index.TopK.survivors", ratio(t.topkScored, t.topkCalls), "count")
	rep.add("index.TopK.survivors_per_result", ratio(t.topkScored, t.topkReturned), "ratio")
	rep.add("corpus.Cluster.self_ms", ms(get("corpus.Cluster").self), "ms")
	rep.add("registry.candidates_matched", perProbe(t.matched), "count")
	rep.add("registry.match_yield", ratio(t.returned, t.matched), "ratio")
	rep.add("registry.rank.merge_ms", ms(get("registry.rank.merge").self), "ms")
	rep.add("registry.family.medoids", perProbe(t.medoids), "count")
	rep.add("registry.Match.self_ms", ms(get("registry.Match").self), "ms")
	rep.add("core.MatchPrepared.calls", float64(get("core.MatchPrepared").calls), "count")
	rep.add("core.MatchPrepared.self_ms", ms(get("core.MatchPrepared").self), "ms")
	rep.add("core.MatchPrepared.other_ms", medianOr0(t.mpDiff), "ms")
	rep.add("linguistic.LSim.self_ms", ms(get("linguistic.LSim").self), "ms")
	rep.add("linguistic.LSim.cells", float64(t.lsimCells), "count")
	rep.add("linguistic.BlendDescriptions.self_ms", ms(get("linguistic.BlendDescriptions").self), "ms")
	rep.add("core.lift.self_ms", ms(get("core.lift").self), "ms")
	rep.add("structural.TreeMatch.self_ms", ms(get("structural.TreeMatch").self), "ms")
	rep.add("structural.TreeMatch.node_pairs", float64(t.nodePairs), "count")
	rep.add("structural.SecondPass.self_ms", ms(get("structural.SecondPass").self), "ms")
	rep.add("mapping.Generate.self_ms", ms(get("mapping.Generate").self), "ms")
	rep.add("mapping.Generate.elements", float64(t.genElements), "count")
	rep.add("registry.Score.self_us", us(get("registry.Score").self), "us")
	cov := float64(t.layerTime) / float64(t.opTime)
	rep.add("trace.coverage", cov, "ratio")
	rep.add("trace.glue_ms", ms(t.glue), "ms")
	rep.add("trace.overhead_pct", 100*(float64(t.passC)-float64(t.untraced))/float64(t.untraced), "%")
	rep.line("trace: real operations %.3f ms, named layers %.3f ms, glue %.3f ms, rest (replay vs real timing) %.3f ms",
		ms(t.opTime), ms(t.layerTime), ms(t.glue), ms(t.opTime-t.layerTime-t.glue))
	if cov < 0.9 || cov > 1.1 {
		switch t.r.opt.workload {
		case "probe", "pair":
			rep.incorrect("trace.coverage %.3f is outside 10%% of the real operation time", cov)
		default:
			rep.line("warning: trace.coverage %.3f is outside 10%% of the real operation time", cov)
		}
	}
	// Layer shares of the timed operations' real time.
	for _, name := range []string{"linguistic.LSim", "structural.TreeMatch", "structural.SecondPass", "mapping.Generate", "index.TopK", "corpus.Cluster"} {
		rep.line("share %-30s %6.2f%% of real operation time", name, 100*float64(get(name).self)/float64(t.opTime))
	}
}

// quietly runs fn with spans and counts discarded: warm-up work.
func (t *tracer) quietly(fn func() error) error {
	keep, kept := t.rec, t.counts
	t.rec = newRecorder()
	defer func() { t.rec, t.counts = keep, kept }()
	return fn()
}

// warmReplay warms the replay's linguistic matcher on probes the real
// matcher has already seen, without keeping spans or counts.
func (t *tracer) warmReplay(probes []doc) error {
	return t.quietly(func() error {
		for _, d := range probes {
			pr, _, err := t.probeOp(nil, d)
			if err != nil {
				return err
			}
			if _, _, err := t.replayMatchBatch(pr.src, topK); err != nil {
				return err
			}
		}
		return nil
	})
}

// warmPairReplay is warmReplay for pairs.
func (t *tracer) warmPairReplay(pairs []pairInput) error {
	return t.quietly(func() error {
		for _, p := range pairs {
			_, prep, _, err := t.pairOp(nil, p)
			if err != nil {
				return err
			}
			t.replayMatch(prep[0], prep[1])
		}
		return nil
	})
}

func (r *runner) warmDocs() ([]doc, error) {
	out := make([]doc, warmProbes)
	for j := range out {
		var err error
		if out[j], err = r.in.warmProbe(j); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkHTTPBatch compares one traced HTTP /match/batch reply with the
// in-process result of the same operation.
func (r *runner) checkHTTPBatch(i int, rep reply, want batchReply) {
	r.rep.attempted++
	got, why := decodeBatch(rep)
	if why == "" {
		why = diffBatch(got, want)
	}
	if why != "" {
		r.rep.opFailed("probe", i, why)
	}
}

func respBytes(reps []reply) int {
	n := 0
	for _, rp := range reps {
		n += len(rp.body)
	}
	return n
}

// traceProbes is the traced run of a probe-ranking workload: corpus set
// up over HTTP and in-process, the same tracedOps probes through both,
// and (cluster) one clustering job first.
func (r *runner) traceProbes(corpusSize int, clustered bool) error {
	docs, err := r.in.corpus(corpusSize)
	if err != nil {
		return err
	}
	warm, err := r.warmDocs()
	if err != nil {
		return err
	}
	probes := make([]doc, tracedOps)
	for i := range probes {
		if probes[i], err = r.in.probe(i); err != nil {
			return err
		}
	}
	var httpFamilies []byte
	var extra func(c *conns) error
	if clustered {
		extra = func(c *conns) error {
			_, fam, err := r.clusterJob(c)
			httpFamilies = fam
			return err
		}
	}
	reps, lat, err := r.httpPhase(docs, r.warmUpProbes, extra, tracedOps, func(c *conns, i int) reply {
		return c.do("POST", "/match/batch", batchBody(probes[i], topK))
	})
	if err != nil {
		return err
	}
	t, err := r.newTracer()
	if err != nil {
		return err
	}
	defer t.close()
	if err := t.registerCorpus(docs); err != nil {
		return err
	}
	if clustered {
		prev := par.SetMaxWorkers(1)
		raw, err := t.clusterTraced()
		par.SetMaxWorkers(prev)
		if err != nil {
			return err
		}
		r.rep.attempted++
		if string(raw) != string(httpFamilies) {
			r.rep.opFailed("cluster job", 0, "in-process families bytes differ from cupidd's for the same corpus")
		}
		// The probes are compared under the clustering cupidd served.
		if err := t.reg.SetFamiliesJSON(httpFamilies); err != nil {
			return err
		}
	}
	for _, d := range warm {
		if _, _, err := t.probeOp(nil, d); err != nil {
			return err
		}
	}
	if err := t.warmReplay(warm); err != nil {
		return err
	}
	inproc, err := t.passes(tracedOps, func(i int, check bool) (time.Duration, error) {
		pr, took, err := t.probeOp(nil, probes[i])
		if err == nil && check {
			r.checkHTTPBatch(i, reps[i], pr.reply)
		}
		return took, err
	})
	if err != nil {
		return err
	}
	// The real matcher's token cache has now seen the timed probes
	// twice; the replay's is warmed on them too before it is timed.
	if err := t.warmReplay(probes); err != nil {
		return err
	}
	prev := par.SetMaxWorkers(1)
	defer par.SetMaxWorkers(prev)
	for i := range probes {
		t.rec.op = i
		if err := t.probeTraced(i, probes[i]); err != nil {
			return err
		}
	}
	t.emit(lat, inproc, respBytes(reps))
	return nil
}

func (r *runner) traceProbe() error   { return r.traceProbes(probeCorpus, false) }
func (r *runner) traceCluster() error { return r.traceProbes(clusterCorpus, true) }

func (r *runner) tracePair() error {
	warm := func(c *conns) error {
		for j := 1; j <= warmPairs; j++ {
			p, err := r.in.pair(-j)
			if err != nil {
				return err
			}
			if _, why := decodeMatch(c.do("POST", "/match", matchBody(p))); why != "" {
				return fmt.Errorf("warm-up pair %d: %s", j, why)
			}
		}
		return nil
	}
	pairs := make([]pairInput, tracedOps)
	for i := range pairs {
		var err error
		if pairs[i], err = r.in.pair(i); err != nil {
			return err
		}
	}
	reps, lat, err := r.httpPhase(nil, warm, nil, tracedOps, func(c *conns, i int) reply {
		return c.do("POST", "/match", matchBody(pairs[i]))
	})
	if err != nil {
		return err
	}
	t, err := r.newTracer()
	if err != nil {
		return err
	}
	defer t.close()
	var warmed []pairInput
	for j := 1; j <= warmPairs; j++ {
		p, err := r.in.pair(-j)
		if err != nil {
			return err
		}
		warmed = append(warmed, p)
	}
	if err := t.warmPairReplay(warmed); err != nil {
		return err
	}
	inproc, err := t.passes(tracedOps, func(i int, check bool) (time.Duration, error) {
		want, _, took, err := t.pairOp(nil, pairs[i])
		if err == nil && check {
			r.rep.attempted++
			got, why := decodeMatch(reps[i])
			if why == "" {
				why = diffMatch(got, want)
			}
			if why != "" {
				r.rep.opFailed("pair", i, why)
			}
		}
		return took, err
	})
	if err != nil {
		return err
	}
	if err := t.warmPairReplay(pairs); err != nil {
		return err
	}
	prev := par.SetMaxWorkers(1)
	defer par.SetMaxWorkers(prev)
	for i := range pairs {
		t.rec.op = i
		if err := t.pairTraced(i, pairs[i]); err != nil {
			return err
		}
	}
	t.emit(lat, inproc, respBytes(reps))
	return nil
}

// traceChurn alternates a replacing write and a probe. Each pass writes
// its own documents (a repeated write would be an idempotent no-op),
// pass A the ones the HTTP phase sent, so the registry passes through
// the same states and every HTTP reply has an in-process counterpart.
func (r *runner) traceChurn() error {
	docs, err := r.in.corpus(churnCorpus)
	if err != nil {
		return err
	}
	writes := make([]doc, 3*tracedOps)
	for j := range writes {
		if writes[j], err = r.in.write(j, docs[churnTarget(j, len(docs))].name); err != nil {
			return err
		}
	}
	probes := make([]doc, tracedOps)
	for i := range probes {
		if probes[i], err = r.in.probe(i); err != nil {
			return err
		}
	}
	warm, err := r.warmDocs()
	if err != nil {
		return err
	}
	reps, lats, err := r.httpPhase(docs, r.warmUpProbes, nil, 2*tracedOps, func(c *conns, k int) reply {
		if k%2 == 0 {
			return c.do("POST", "/schemas", registerBody(writes[k/2]))
		}
		return c.do("POST", "/match/batch", batchBody(probes[k/2], topK))
	})
	if err != nil {
		return err
	}
	var lat []float64
	var writeReps []reply
	for k := 0; k < len(reps); k += 2 {
		lat = append(lat, lats[k])
		writeReps = append(writeReps, reps[k])
	}
	// The basis of the churn writer's rate: a replace's service time
	// with no other request in flight.
	r.rep.line("write service time over HTTP, one request in flight: p50 %.3f ms, max %.3f ms (n=%d)", percentile(lat, 50), percentile(lat, 100), len(lat))
	t, err := r.newTracer()
	if err != nil {
		return err
	}
	defer t.close()
	if err := t.registerCorpus(docs); err != nil {
		return err
	}
	for _, d := range warm {
		if _, _, err := t.probeOp(nil, d); err != nil {
			return err
		}
	}
	if err := t.warmReplay(warm); err != nil {
		return err
	}
	var writeA []float64
	_, err = t.passes(tracedOps, func(i int, check bool) (time.Duration, error) {
		j := i
		if !check {
			j += tracedOps
		}
		wTook, _, err := t.register(nil, writes[j])
		if err != nil {
			return 0, err
		}
		pr, pTook, err := t.probeOp(nil, probes[i])
		if err != nil {
			return 0, err
		}
		if check {
			writeA = append(writeA, millis(wTook))
			r.rep.attempted++
			if why := checkRegistered(reps[2*i], writes[j], 201); why != "" {
				r.rep.opFailed("write", i, why)
			}
			r.checkHTTPBatch(i, reps[2*i+1], pr.reply)
		}
		return wTook + pTook, nil
	})
	if err != nil {
		return err
	}
	if err := t.warmReplay(probes); err != nil {
		return err
	}
	prev := par.SetMaxWorkers(1)
	defer par.SetMaxWorkers(prev)
	for i := range probes {
		t.rec.op = i
		from := len(t.rec.spans)
		took, own, err := t.registerTraced(writes[2*tracedOps+i])
		if err != nil {
			return err
		}
		t.passC += took
		t.account(from, took, own)
		if err := t.probeTraced(i, probes[i]); err != nil {
			return err
		}
	}
	t.emit(lat, writeA, respBytes(writeReps))
	return nil
}

// medianOr0 is the median, or 0 for a workload without such samples.
func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
