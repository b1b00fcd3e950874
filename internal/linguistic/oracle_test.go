package linguistic

// The bit-identity oracle of the comparison kernel. oracle below is the
// kernel the interned simTable replaced, kept verbatim: a process-lifetime
// striped-mutex cache of token-pair similarities consulted once per token
// comparison, NameSimTS over raw TokenSets, and the element scales
// collected in a map. Every sweep of the table kernel (CompatiblePairs,
// LSim, BlendDescriptions, NameSimMatrix over path names), and NameSimTS
// itself, must equal the oracle's cell for cell, bit for bit.

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/schematree"
	"repro/internal/thesaurus"
	"repro/internal/workloads"
)

type oracle struct {
	Th       *thesaurus.Thesaurus
	P        Params
	simCache *simCache
}

func newOracle(th *thesaurus.Thesaurus, p Params) *oracle {
	return &oracle{Th: th, P: p, simCache: newSimCache()}
}

const simCacheShards = 64

type simCache struct {
	shards [simCacheShards]simCacheShard
}

type simCacheShard struct {
	mu sync.RWMutex
	m  map[[2]string]float64
}

func newSimCache() *simCache {
	c := &simCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[[2]string]float64)
	}
	return c
}

func (c *simCache) shard(key [2]string) *simCacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key[0]); i++ {
		h = (h ^ uint32(key[0][i])) * 16777619
	}
	h = (h ^ 0xff) * 16777619
	for i := 0; i < len(key[1]); i++ {
		h = (h ^ uint32(key[1][i])) * 16777619
	}
	return &c.shards[h&(simCacheShards-1)]
}

func (c *simCache) get(key [2]string) (float64, bool) {
	sh := c.shard(key)
	sh.mu.RLock()
	s, ok := sh.m[key]
	sh.mu.RUnlock()
	return s, ok
}

func (c *simCache) put(key [2]string, v float64) {
	sh := c.shard(key)
	sh.mu.Lock()
	sh.m[key] = v
	sh.mu.Unlock()
}

func (m *oracle) tokenSim(a, b Token) float64 {
	if a.Type != b.Type {
		return 0
	}
	if a.Type != TokenContent {
		if a.Raw == b.Raw {
			return 1
		}
		return 0
	}
	if a.Stem == b.Stem {
		return 1
	}
	key := [2]string{a.Raw, b.Raw}
	if key[0] > key[1] {
		key[0], key[1] = key[1], key[0]
	}
	if s, ok := m.simCache.get(key); ok {
		return s
	}
	s := m.Th.Sim(a.Raw, b.Raw)
	m.simCache.put(key, s)
	return s
}

func (m *oracle) setSim(t1, t2 []Token) float64 {
	if len(t1)+len(t2) == 0 {
		return 0
	}
	sum := 0.0
	for _, a := range t1 {
		best := 0.0
		for _, b := range t2 {
			if s := m.tokenSim(a, b); s > best {
				best = s
			}
		}
		sum += best
	}
	for _, b := range t2 {
		best := 0.0
		for _, a := range t1 {
			if s := m.tokenSim(a, b); s > best {
				best = s
			}
		}
		sum += best
	}
	return sum / float64(len(t1)+len(t2))
}

func (m *oracle) NameSimTS(ts1, ts2 TokenSet) float64 {
	var num, den float64
	for tt := TokenType(0); tt < NumTokenTypes; tt++ {
		t1 := ts1.ByType(tt)
		t2 := ts2.ByType(tt)
		size := float64(len(t1) + len(t2))
		if size == 0 {
			continue
		}
		w := m.P.Weights[tt]
		num += w * m.setSim(t1, t2) * size
		den += w * size
	}
	if den == 0 {
		return 0
	}
	ns := num / den
	if !m.P.DisableAcronymDetection {
		if a := acronymSim(ts1, ts2); a > ns {
			ns = a
		}
	}
	return ns
}

func (m *oracle) CompatiblePairs(a, b *SchemaInfo) map[[2]int]float64 {
	na := len(a.Categories)
	rows := make([][]catPair, na)
	par.For(na, func(i int) {
		ka := a.Categories[i].Keywords
		var row []catPair
		for j, cb := range b.Categories {
			ns := m.NameSimTS(ka, cb.Keywords)
			if ns >= m.P.Thns {
				row = append(row, catPair{j: j, ns: ns})
			}
		}
		rows[i] = row
	})
	out := make(map[[2]int]float64)
	for i, row := range rows {
		for _, c := range row {
			out[[2]int{i, c.j}] = c.ns
		}
	}
	return out
}

func (m *oracle) LSim(a, b *SchemaInfo) matrix.Matrix {
	compat := m.CompatiblePairs(a, b)
	lsim := matrix.New(a.Schema.Len(), b.Schema.Len())
	scale := map[[2]int]float64{}
	keys := make([][2]int, 0, len(compat))
	for k := range compat {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		ns := compat[k]
		for _, ma := range a.Categories[k[0]].Members {
			for _, mb := range b.Categories[k[1]].Members {
				p := [2]int{ma, mb}
				if ns > scale[p] {
					scale[p] = ns
				}
			}
		}
	}
	pairs := make([][2]int, 0, len(scale))
	for p := range scale {
		pairs = append(pairs, p)
	}
	par.For(len(pairs), func(k int) {
		p := pairs[k]
		lsim.Set(p[0], p[1], m.NameSimTS(a.Tokens[p[0]], b.Tokens[p[1]])*scale[p])
	})
	return lsim
}

// BlendDescriptions takes the description token sets from the Matcher
// that analyzed the schemas (descTokens normalizes; only the comparison
// is the oracle's).
func (m *oracle) BlendDescriptions(descA, descB []*TokenSet, lsim matrix.Matrix, weight float64) {
	if weight <= 0 {
		return
	}
	if weight > 1 {
		weight = 1
	}
	par.For(len(descA), func(i int) {
		if descA[i] == nil {
			return
		}
		row := lsim.Row(i)
		for j := range descB {
			if descB[j] == nil {
				continue
			}
			ds := m.NameSimTS(*descA[i], *descB[j])
			row[j] = (1-weight)*row[j] + weight*ds
		}
	})
}

// pathSweep is core's ModeLinguisticOnly sweep as it ran over the oracle.
func (m *oracle) pathSweep(tokS, tokT []TokenSet) matrix.Matrix {
	lsim := matrix.New(len(tokS), len(tokT))
	par.For(len(tokS), func(i int) {
		row := lsim.Row(i)
		for j := range tokT {
			row[j] = m.NameSimTS(tokS[i], tokT[j])
		}
	})
	return lsim
}

// --- comparison ---------------------------------------------------------

func sameBits(t *testing.T, what string, got, want matrix.Matrix) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %dx%d, oracle %dx%d", what, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := 0; i < got.Rows(); i++ {
		for j := 0; j < got.Cols(); j++ {
			if g, w := got.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: cell (%d,%d) = %v, oracle %v", what, i, j, g, w)
			}
		}
	}
}

// describe gives every other element a prose description built from its
// own and its parent's names, so BlendDescriptions has work to do.
func describe(s *model.Schema) *model.Schema {
	for _, e := range s.Elements() {
		if e.ID()%2 == 1 || e.Parent() == nil {
			continue
		}
		e.Description = fmt.Sprintf("the %s of the %s record, %d", e.Name, e.Parent().Name, e.ID()%4)
	}
	return s
}

// checkPair compares every kernel sweep with the oracle on one schema
// pair. ana analyzes the schemas; m (which may be a different Matcher
// over the same thesaurus) matches them.
func checkPair(t *testing.T, name string, ana, m *Matcher, src, dst *model.Schema) {
	t.Helper()
	o := newOracle(m.Th, m.P)
	a, b := ana.Analyze(src), ana.Analyze(dst)

	got, want := m.CompatiblePairs(a, b), o.CompatiblePairs(a, b)
	if len(got) != len(want) {
		t.Fatalf("%s: %d compatible category pairs, oracle %d", name, len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: compat%v = %v (present %v), oracle %v", name, k, g, ok, w)
		}
	}

	lsim, olsim := m.LSim(a, b), o.LSim(a, b)
	sameBits(t, name+" LSim", lsim, olsim)

	// NameSimTS on raw token sets, over the first elements of each side.
	for i := 0; i < len(a.Tokens) && i < 30; i++ {
		for j := 0; j < len(b.Tokens) && j < 30; j++ {
			g, w := m.NameSimTS(a.Tokens[i], b.Tokens[j]), o.NameSimTS(a.Tokens[i], b.Tokens[j])
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: NameSimTS of elements %d, %d = %v, oracle %v", name, i, j, g, w)
			}
		}
	}

	m.BlendDescriptions(a, b, lsim, 0.3)
	o.BlendDescriptions(ana.descTokens(a), ana.descTokens(b), olsim, 0.3)
	sameBits(t, name+" BlendDescriptions", lsim, olsim)

	ts, err := schematree.Build(src, schematree.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tt, err := schematree.Build(dst, schematree.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	paths := func(tr *schematree.Tree) []TokenSet {
		out := make([]TokenSet, tr.Len())
		for i, n := range tr.Nodes {
			out[i] = Normalize(n.Path(), ana.Th)
		}
		return out
	}
	ps, pt := paths(ts), paths(tt)
	sameBits(t, name+" path NameSimMatrix", m.NameSimMatrix(ana.Intern(ps), ana.Intern(pt)), o.pathSweep(ps, pt))
}

// forWorkers runs fn with one worker and with the default worker count.
func forWorkers(t *testing.T, fn func(t *testing.T)) {
	for _, w := range []int{1, 0} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			prev := par.SetMaxWorkers(w)
			defer par.SetMaxWorkers(prev)
			fn(t)
		})
	}
}

func TestKernelMatchesOraclePaperWorkloads(t *testing.T) {
	forWorkers(t, func(t *testing.T) {
		for _, th := range []*thesaurus.Thesaurus{workloads.PaperThesaurus(), thesaurus.Base(), thesaurus.New()} {
			m := NewMatcher(th)
			for _, mk := range []func() workloads.Workload{workloads.CIDXExcel, workloads.RDBStar, workloads.Figure2} {
				w := mk()
				checkPair(t, w.Name, m, m, describe(w.Source), describe(w.Target))
			}
		}
	})
}

// syntheticSpecs returns 52 seeded generator specs of varied shape,
// including the 8×50×2 pair spec of the repository benchmark.
func syntheticSpecs() []workloads.SyntheticSpec {
	specs := []workloads.SyntheticSpec{
		{Tables: 8, ColsPerTable: 50, Depth: 2, Seed: 1, Rename: 0.3, Renest: 0.2},
		{Tables: 8, ColsPerTable: 50, Depth: 2, Seed: 2, Rename: 0.3, Renest: 0.2},
	}
	for s := int64(0); s < 50; s++ {
		specs = append(specs, workloads.SyntheticSpec{
			Tables:       1 + int(s%5),
			ColsPerTable: 3 + int(s%9),
			Depth:        1 + int(s%3),
			Seed:         100 + s,
			Rename:       0.1 * float64(s%6),
			Renest:       0.1 * float64(s%3),
			FKs:          int(s % 2),
		})
	}
	return specs
}

func TestKernelMatchesOracleSynthetic(t *testing.T) {
	specs := syntheticSpecs()
	if testing.Short() {
		specs = specs[1:12]
	}
	forWorkers(t, func(t *testing.T) {
		m := NewMatcher(thesaurus.Base())
		for _, spec := range specs {
			w := workloads.Synthetic(spec)
			name := fmt.Sprintf("synthetic %dx%dx%d seed %d", spec.Tables, spec.ColsPerTable, spec.Depth, spec.Seed)
			checkPair(t, name, m, m, describe(w.Source), describe(w.Target))
		}
	})
}

func TestKernelMatchesOracleFamilyProbes(t *testing.T) {
	corpus := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: 4, Seed: 5})
	forWorkers(t, func(t *testing.T) {
		m := NewMatcher(thesaurus.Base())
		for f := 0; f < workloads.NumFamilies(); f++ {
			probe := workloads.FamilyProbe(f, 17)
			for _, cand := range corpus {
				checkPair(t, probe.Name+" vs "+cand.Name, m, m, probe, cand)
			}
		}
	})
}

// The repository benchmark's traced replay matches SchemaInfos analyzed
// by one Matcher with another Matcher over the same thesaurus.
func TestKernelMatchesOracleAcrossMatchers(t *testing.T) {
	th := thesaurus.Base()
	ana, m := NewMatcher(th), NewMatcher(th)
	forWorkers(t, func(t *testing.T) {
		w := workloads.CIDXExcel()
		checkPair(t, "CIDX/Excel", ana, m, describe(w.Source), describe(w.Target))
		corpus := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{Families: 2, PerFamily: 3, Seed: 9})
		for _, cand := range corpus {
			checkPair(t, "probe vs "+cand.Name, ana, m, workloads.FamilyProbe(1, 3), cand)
		}
	})
}

// Synonyms and hypernyms that reach the matcher through Merge and through
// a JSON round trip must be visible to the kernel's relation bits.
func TestKernelMatchesOracleMergedAndLoadedThesaurus(t *testing.T) {
	spec := workloads.SyntheticSpec{Tables: 3, ColsPerTable: 8, Depth: 2, Seed: 41, Rename: 0.4, Renest: 0.2}
	w := workloads.Synthetic(spec)

	// Relate the content words of one schema to those of the other, so
	// that most cross-schema token pairs have an entry.
	words := func(s *model.Schema) []string {
		var out []string
		for _, e := range s.Elements() {
			out = append(out, Tokenize(e.Name)...)
		}
		return out
	}
	extra := thesaurus.New()
	ws, wt := words(w.Source), words(w.Target)
	for i, a := range ws {
		b := wt[(i*7)%len(wt)]
		if i%2 == 0 {
			extra.AddSynonym(a, b, 0.55+0.01*float64(i%10))
		} else {
			extra.AddHypernym(a, b, 0.45)
		}
	}
	merged := thesaurus.Base()
	merged.Merge(extra)
	var buf bytes.Buffer
	if err := merged.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := thesaurus.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	forWorkers(t, func(t *testing.T) {
		for name, th := range map[string]*thesaurus.Thesaurus{"merged": merged, "loaded": loaded} {
			m := NewMatcher(th)
			w := workloads.Synthetic(spec)
			checkPair(t, name, m, m, describe(w.Source), describe(w.Target))
		}
	})
}

// A concept category's keyword token keeps the concept name unstemmed, so
// it can differ in stem from a name token with the same thesaurus key
// (concept "quantity" vs the name Quantities: stems quantity and
// quantiti, both keyed quantiti). The kernel must score such pairs
// through the keys, as the thesaurus does.
func TestKernelMatchesOracleConceptKeys(t *testing.T) {
	th := thesaurus.Base()
	th.AddConcept("amount", "quantity")
	th.AddConcept("count", "quantity")
	th.AddSynonym("tally", "count", 0.7)
	mk := func(name string, cols ...string) *model.Schema {
		s := model.New(name)
		tab := s.AddChild(s.Root(), name+"Quantities", model.KindTable)
		for _, c := range cols {
			s.AddChild(tab, c, model.KindColumn).Type = model.DTInt
		}
		return s
	}
	forWorkers(t, func(t *testing.T) {
		m := NewMatcher(th)
		checkPair(t, "concept keys", m, m,
			describe(mk("Order", "Amount", "Tally", "Quantity")),
			describe(mk("Stock", "Quantities", "Count", "Tallies")))
	})
}
