// Micro-benchmarks for the individual subsystems, complementing the
// per-experiment benchmarks in bench_test.go: they localize where matching
// time goes (tokenization, name similarity, tree expansion, TreeMatch).
package cupid_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/linguistic"
	"repro/internal/mapping"
	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/schematree"
	"repro/internal/structural"
	"repro/internal/thesaurus"
	"repro/internal/workloads"
)

func BenchmarkStemmer(b *testing.B) {
	words := []string{
		"shipping", "addresses", "territories", "relational", "quantities",
		"organizations", "descriptions", "probabilistic", "customers",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		thesaurus.Stem(words[i%len(words)])
	}
}

func BenchmarkTokenize(b *testing.B) {
	names := []string{
		"POLines", "ContactFunctionCode", "yourAccountCode", "Street1",
		"Order-Customer-fk", "UnitOfMeasure", "CIDXPurchaseOrder",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		linguistic.Tokenize(names[i%len(names)])
	}
}

func BenchmarkNormalize(b *testing.B) {
	th := thesaurus.Base()
	names := []string{"POLines", "UnitPrice", "ContactPhone", "StateOrProvince"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		linguistic.Normalize(names[i%len(names)], th)
	}
}

func BenchmarkNameSim(b *testing.B) {
	m := linguistic.NewMatcher(thesaurus.Base())
	pairs := [][2]string{
		{"POBillTo", "InvoiceTo"},
		{"Qty", "Quantity"},
		{"CustomerNumber", "ClientNo"},
		{"UnitOfMeasure", "UOM"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		m.NameSim(p[0], p[1])
	}
}

func BenchmarkSchemaTreeBuild(b *testing.B) {
	s := workloads.Excel() // shared types: real expansion work
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := schematree.Build(s, schematree.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeMatchOnly(b *testing.B) {
	w := workloads.CIDXExcel()
	ts, err := schematree.Build(w.Source, schematree.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	tt, err := schematree.Build(w.Target, schematree.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	lm := linguistic.NewMatcher(workloads.PaperThesaurus())
	a := lm.Analyze(w.Source)
	c := lm.Analyze(w.Target)
	elem := lm.LSim(a, c)
	lsim := matrix.New(ts.Len(), tt.Len())
	for i, sn := range ts.Nodes {
		for j, tn := range tt.Nodes {
			lsim.Set(i, j, elem.At(sn.Elem.ID(), tn.Elem.ID()))
		}
	}
	p := structural.DefaultParams()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		structural.TreeMatch(ts, tt, lsim, p)
	}
}

func BenchmarkLinguisticPhaseOnly(b *testing.B) {
	w := workloads.CIDXExcel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lm := linguistic.NewMatcher(workloads.PaperThesaurus())
		a := lm.Analyze(w.Source)
		c := lm.Analyze(w.Target)
		lm.LSim(a, c)
	}
}

func BenchmarkNameSimTS(b *testing.B) {
	lm := linguistic.NewMatcher(workloads.PaperThesaurus())
	ts1 := linguistic.Normalize("PurchaseOrderLines", lm.Th)
	ts2 := linguistic.Normalize("OrderItems", lm.Th)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lm.NameSimTS(ts1, ts2)
	}
}

// BenchmarkLSim times the linguistic phase on the two shapes that
// dominate the repository benchmark: a registry-shaped pair (a FamilyProbe
// against one FamilyCorpus member, as in every /match/batch candidate
// match) and the 8×50×2 synthetic pair of its pair workload (417 elements
// a side). Both schemas are analyzed once, as a prepared artifact is.
func BenchmarkLSim(b *testing.B) {
	for _, c := range matchShapes() {
		b.Run(c.name, func(b *testing.B) {
			lm := linguistic.NewMatcher(thesaurus.Base())
			a, t := lm.Analyze(c.src), lm.Analyze(c.dst)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lm.LSim(a, t)
			}
		})
	}
}

// matchShapes are the two match shapes of the repository benchmark: a
// registry-shaped pair (a FamilyProbe against one FamilyCorpus member, as
// in every /match/batch candidate match, ~15×17 nodes) and the 8×50×2
// synthetic pair of its pair workload (~420 nodes a side).
func matchShapes() []struct {
	name     string
	src, dst *model.Schema
} {
	corpus := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{Families: 1, PerFamily: 2, Seed: 1})
	pair := workloads.Synthetic(workloads.SyntheticSpec{
		Tables: 8, ColsPerTable: 50, Depth: 2, Seed: 1, Rename: 0.3, Renest: 0.2,
	})
	return []struct {
		name     string
		src, dst *model.Schema
	}{
		{"registry", workloads.FamilyProbe(0, 1), corpus[1]},
		{"pair8x50x2", pair.Source, pair.Target},
	}
}

// BenchmarkMatchPrepared times one whole prepared match (LSim, lift,
// TreeMatch, SecondPass, mapping generation) on the benchmark's two
// shapes. The registry shape is the per-candidate cost of a batch probe;
// the pair shape is large enough that its loops fan out over the workers.
func BenchmarkMatchPrepared(b *testing.B) {
	for _, c := range matchShapes() {
		b.Run(c.name, func(b *testing.B) {
			m := prepareMatcher(b)
			src, dst := mustPrepare(b, m, c.src), mustPrepare(b, m, c.dst)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.MatchPrepared(src, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func prepareMatcher(tb testing.TB) *core.Matcher {
	tb.Helper()
	m, err := core.NewMatcher(core.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func mustPrepare(tb testing.TB, m *core.Matcher, s *model.Schema) *core.Prepared {
	tb.Helper()
	p, err := m.Prepare(s)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// allocFixture builds the mid-size synthetic schema pair used by the
// allocation-regression assertions (41 elements per side with the default
// spec: big enough that a per-row or per-call allocation regression is
// amplified well past the bounds, small enough to run in milliseconds).
func allocFixture(tb testing.TB) (lm *linguistic.Matcher, a, c *linguistic.SchemaInfo,
	ts, tt *schematree.Tree, lsim matrix.Matrix) {
	tb.Helper()
	w := workloads.Synthetic(workloads.SyntheticSpec{
		Tables: 4, ColsPerTable: 8, Depth: 2, Seed: 2, Rename: 0.3, Renest: 0.2,
	})
	lm = linguistic.NewMatcher(workloads.PaperThesaurus())
	a = lm.Analyze(w.Source)
	c = lm.Analyze(w.Target)
	var err error
	if ts, err = schematree.Build(w.Source, schematree.DefaultOptions()); err != nil {
		tb.Fatal(err)
	}
	if tt, err = schematree.Build(w.Target, schematree.DefaultOptions()); err != nil {
		tb.Fatal(err)
	}
	elem := lm.LSim(a, c)
	lsim = matrix.New(ts.Len(), tt.Len())
	for i, sn := range ts.Nodes {
		for j, tn := range tt.Nodes {
			lsim.Set(i, j, elem.At(sn.Elem.ID(), tn.Elem.ID()))
		}
	}
	return lm, a, c, ts, tt, lsim
}

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// TestAllocRegressions pins the allocation behaviour of the hot paths at
// their measured counts, so that any new per-call, per-row or per-pair
// allocation fails. On the mid-size synthetic schema, NameSimTS must not
// allocate, LSim allocates 3 objects — the matrix it returns and its two
// loop bodies (its token-similarity table and category rows come from a
// pool) — and TreeMatch 5 (its Result, two matrices, two loop bodies). On
// a registry-shaped pair (a FamilyProbe against a FamilyCorpus member,
// the per-candidate match of a batch probe) a whole MatchPrepared
// allocates 14 objects, all of them the Result it returns or loop bodies:
// TreeMatch 5 again, SecondPass none, Generate 3 (the Mapping and its two
// element slices). Analyzing a FamilyCorpus schema allocates 360.5
// objects on average. Runs with one worker so the goroutine machinery of
// the parallel path is not counted. Under the race detector sync.Pool
// drops pooled items at random, so the bounds of the kernels that take
// their scratch from a pool are checked only in ordinary builds; the
// others hold in race builds too.
func TestAllocRegressions(t *testing.T) {
	prev := par.SetMaxWorkers(1)
	defer par.SetMaxWorkers(prev)
	lm, a, c, ts, tt, lsim := allocFixture(t)
	p := structural.DefaultParams()
	ts1 := linguistic.Normalize("PurchaseOrderLines", lm.Th)
	ts2 := linguistic.Normalize("OrderItems", lm.Th)

	m := prepareMatcher(t)
	shape := matchShapes()[0]
	src, dst := mustPrepare(t, m, shape.src), mustPrepare(t, m, shape.dst)
	res, err := m.MatchPrepared(src, dst)
	if err != nil {
		t.Fatal(err)
	}

	for _, b := range []struct {
		name   string
		max    float64
		pooled bool // takes scratch from a sync.Pool
		fn     func()
	}{
		{"NameSimTS", 0, false, func() { lm.NameSimTS(ts1, ts2) }},
		{"LSim", 3, true, func() { lm.LSim(a, c) }},
		{"TreeMatch", 5, true, func() { structural.TreeMatch(ts, tt, lsim, p) }},
		{"MatchPrepared/registry", 14, true, func() { m.MatchPrepared(src, dst) }},
		{"TreeMatch/registry", 5, true, func() { structural.TreeMatch(src.Tree(), dst.Tree(), res.LSim, p) }},
		{"SecondPass/registry", 0, true, func() { structural.SecondPass(res.Struct, src.Tree(), dst.Tree(), res.LSim, p) }},
		{"Generate/registry", 3, true, func() {
			mapping.Generate(src.Tree(), dst.Tree(), res.Struct, res.LSim, mapping.DefaultOptions())
		}},
	} {
		if b.pooled && raceEnabled {
			continue
		}
		if got := testing.AllocsPerRun(20, b.fn); got > b.max {
			t.Errorf("%s allocates %.1f objects/op, want <= %.0f", b.name, got, b.max)
		}
	}

	corpus := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{Families: workloads.NumFamilies(), PerFamily: 4, Seed: 1})
	// AllocsPerRun counts every allocation in the process, and in race
	// builds about one run in fifty picks up a single allocation from
	// outside Analyze; the least of three measurements leaves it out.
	perSchema := math.Inf(1)
	for k := 0; k < 3; k++ {
		perSchema = min(perSchema, testing.AllocsPerRun(5, func() {
			for _, s := range corpus {
				lm.Analyze(s)
			}
		})/float64(len(corpus)))
	}
	if perSchema > 360.5 {
		t.Errorf("Analyze allocates %.3f objects per FamilyCorpus schema, want <= 360.5", perSchema)
	}
}
