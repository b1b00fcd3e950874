// Micro-benchmarks for the individual subsystems, complementing the
// per-experiment benchmarks in bench_test.go: they localize where matching
// time goes (tokenization, name similarity, tree expansion, TreeMatch).
package cupid_test

import (
	"testing"

	"repro/internal/linguistic"
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
	corpus := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{Families: 1, PerFamily: 2, Seed: 1})
	pair := workloads.Synthetic(workloads.SyntheticSpec{
		Tables: 8, ColsPerTable: 50, Depth: 2, Seed: 1, Rename: 0.3, Renest: 0.2,
	})
	for _, c := range []struct {
		name     string
		src, dst *model.Schema
	}{
		{"registry", workloads.FamilyProbe(0, 1), corpus[1]},
		{"pair8x50x2", pair.Source, pair.Target},
	} {
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

// TestAllocRegressions pins the allocation behaviour of the hot paths on a
// mid-size synthetic schema. NameSimTS must not allocate and LSim is held
// at its measured count (34: the matrix, the token-similarity table and
// the compatible-category rows), so any per-pair or per-row allocation
// fails. TreeMatch's bound carries ~2x headroom over its measured 75, so
// incidental churn passes but reintroducing a per-call or per-row
// allocation (e.g. [][]float64 row allocation) fails loudly. Runs with
// one worker so the goroutine machinery of the parallel path is not
// counted.
func TestAllocRegressions(t *testing.T) {
	prev := par.SetMaxWorkers(1)
	defer par.SetMaxWorkers(prev)
	lm, a, c, ts, tt, lsim := allocFixture(t)

	ts1 := linguistic.Normalize("PurchaseOrderLines", lm.Th)
	ts2 := linguistic.Normalize("OrderItems", lm.Th)
	if got := testing.AllocsPerRun(200, func() { lm.NameSimTS(ts1, ts2) }); got > 0 {
		t.Errorf("NameSimTS allocates %.1f objects/op, want 0", got)
	}

	if got := testing.AllocsPerRun(10, func() { lm.LSim(a, c) }); got > 34 {
		t.Errorf("LSim allocates %.1f objects/op, want <= 34", got)
	}

	p := structural.DefaultParams()
	if got := testing.AllocsPerRun(10, func() { structural.TreeMatch(ts, tt, lsim, p) }); got > 150 {
		t.Errorf("TreeMatch allocates %.1f objects/op, want <= 150", got)
	}
}
