package linguistic_test

// Parallel-vs-sequential determinism of the linguistic phase: LSim fans
// category-pair and element-pair comparisons out over a worker pool, and
// the ISSUE contract is that the parallel result is bit-identical to the
// sequential one. Run with -race: these tests force multiple workers even
// on a single-core machine, so the shared reads of the token-similarity
// table and the disjoint matrix writes are actually exercised
// concurrently.

import (
	"testing"

	"repro/internal/linguistic"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/workloads"
)

func lsimWithWorkers(t *testing.T, w workloads.Workload, workers int) (map[[2]int]float64, matrix.Matrix) {
	t.Helper()
	prev := par.SetMaxWorkers(workers)
	defer par.SetMaxWorkers(prev)
	m := linguistic.NewMatcher(workloads.PaperThesaurus())
	a := m.Analyze(w.Source)
	b := m.Analyze(w.Target)
	return m.CompatiblePairs(a, b), m.LSim(a, b)
}

func TestLSimParallelMatchesSequential(t *testing.T) {
	for _, w := range []workloads.Workload{workloads.CIDXExcel(), workloads.University()} {
		seqCompat, seqLSim := lsimWithWorkers(t, w, 1)
		parCompat, parLSim := lsimWithWorkers(t, w, 8)

		if len(seqCompat) != len(parCompat) {
			t.Fatalf("%s: compatible pairs %d (seq) != %d (par)", w.Name, len(seqCompat), len(parCompat))
		}
		for k, v := range seqCompat {
			if pv, ok := parCompat[k]; !ok || pv != v {
				t.Fatalf("%s: compat[%v] = %v (seq) vs %v (par)", w.Name, k, v, pv)
			}
		}
		if !seqLSim.Equal(parLSim) {
			t.Fatalf("%s: parallel lsim differs from sequential (max abs diff %v)",
				w.Name, seqLSim.MaxAbsDiff(parLSim))
		}
	}
}

// A Matcher must also be safe for concurrent NameSim callers (concurrent
// Match calls share one Matcher).
func TestConcurrentNameSimCallers(t *testing.T) {
	m := linguistic.NewMatcher(workloads.PaperThesaurus())
	pairs := [][2]string{
		{"POBillTo", "InvoiceTo"}, {"Qty", "Quantity"},
		{"CustomerNumber", "ClientNo"}, {"UnitOfMeasure", "UOM"},
		{"POLines", "Items"}, {"City", "CityName"},
	}
	want := make([]float64, len(pairs))
	for i, p := range pairs {
		want[i] = m.NameSim(p[0], p[1])
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for rep := 0; rep < 50; rep++ {
				for i, p := range pairs {
					if got := m.NameSim(p[0], p[1]); got != want[i] {
						done <- errf(p, got, want[i])
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func errf(p [2]string, got, want float64) error {
	return &nameSimMismatch{p: p, got: got, want: want}
}

type nameSimMismatch struct {
	p         [2]string
	got, want float64
}

func (e *nameSimMismatch) Error() string {
	return "concurrent NameSim(" + e.p[0] + ", " + e.p[1] + ") drifted"
}
