package main

import (
	"encoding/json"
	"fmt"
	cupid "repro"
	"strconv"
	"strings"
	"sync"

	"repro/internal/model"
	"repro/internal/workloads"
)

// Every input is a pure function of the run seed and an index, so the
// verification replica and the traced run regenerate exactly the bytes
// the load generator sent. Seed spaces are disjoint per input kind (the
// FamilyCorpus generator offsets schema i of family f by f*1000+i, and
// FamilyProbe by f*1000+7777), and a fingerprint set rejects any
// accidental repeat (failing the run), so no timed request can be answered by cupidd's
// fingerprint-keyed cache.
const (
	seedStride    = 1_000_000_000_000
	probeSeedBase = 100_000_000_000
	warmSeedBase  = 200_000_000_000
	writeSeedBase = 300_000_000_000
	pairSeedBase  = 400_000_000_000
	drawStride    = 100_000 // > 9*1000+7777, FamilyProbe's largest offset
)

// doc is one schema document as the benchmark sends it.
type doc struct {
	name    string // registry name ("" for inline sources)
	family  int    // generator family label (-1 for pair schemas)
	content []byte // native schema JSON ("json" format)
	fp      string // model.Fingerprint of the generated schema
}

// inputs generates the corpus, probes, churn writes and pairs of one run.
type inputs struct {
	seed int64

	mu    sync.Mutex
	seen  map[string]string // fingerprint -> which input produced it
	memo  map[string]doc    // generated probes and writes, by seed slot
	pairs map[int]pairInput
}

func newInputs(seed int64) *inputs {
	return &inputs{seed: seed, seen: map[string]string{}, memo: map[string]doc{}, pairs: map[int]pairInput{}}
}

// memoized returns the input generated for key, generating it on first
// use: repeated set-ups and the replica reuse the same bytes.
func (in *inputs) memoized(key string, gen func() (doc, error)) (doc, error) {
	in.mu.Lock()
	d, ok := in.memo[key]
	in.mu.Unlock()
	if ok {
		return d, nil
	}
	d, err := gen()
	if err != nil {
		return doc{}, err
	}
	in.mu.Lock()
	in.memo[key] = d
	in.mu.Unlock()
	return d, nil
}

func (in *inputs) base() int64 { return in.seed * seedStride }

// claim records a fingerprint, reporting false if another input already
// produced the same content.
func (in *inputs) claim(fp, what string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if _, dup := in.seen[fp]; dup {
		return false
	}
	in.seen[fp] = what
	return true
}

// encodeDoc serializes a generated schema. The fingerprint is taken of
// the schema as cupidd parses those bytes back, which is what it reports.
func encodeDoc(name string, family int, s *model.Schema) (doc, error) {
	b, err := s.MarshalJSON()
	if err != nil {
		return doc{}, fmt.Errorf("encoding %s: %w", s.Name, err)
	}
	parsed, err := cupid.ParseSchema(name, "json", b)
	if err != nil {
		return doc{}, fmt.Errorf("re-parsing %s: %w", s.Name, err)
	}
	return doc{name: name, family: family, content: b, fp: model.Fingerprint(parsed)}, nil
}

// claimed fails a generated document whose content another input
// already produced.
func (in *inputs) claimed(d doc, err error) func(what string) (doc, error) {
	return func(what string) (doc, error) {
		if err != nil {
			return doc{}, err
		}
		if !in.claim(d.fp, what) {
			return doc{}, fmt.Errorf("%s repeats another input", what)
		}
		return d, nil
	}
}

// corpus returns n FamilyCorpus schemas (n a multiple of the family
// count), named fam<f>-<i>.
func (in *inputs) corpus(n int) ([]doc, error) {
	fams := workloads.NumFamilies()
	schemas := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{Families: fams, PerFamily: n / fams, Seed: in.base()})
	out := make([]doc, len(schemas))
	for i, s := range schemas {
		d, err := encodeDoc(s.Name, familyOf(s.Name), s)
		if err != nil {
			return nil, err
		}
		if !in.claim(d.fp, s.Name) {
			return nil, fmt.Errorf("corpus schema %s repeats another input", s.Name)
		}
		out[i] = d
	}
	return out, nil
}

// familyOf parses the family label out of a corpus name ("fam3-17" -> 3).
func familyOf(name string) int {
	rest, ok := strings.CutPrefix(name, "fam")
	if !ok {
		return -1
	}
	f, _, _ := strings.Cut(rest, "-")
	n, err := strconv.Atoi(f)
	if err != nil {
		return -1
	}
	return n
}

// familyDraw is a fresh FamilyProbe draw of family fam, input j of the
// seed space at base.
func (in *inputs) familyDraw(base int64, j, fam int) *model.Schema {
	return workloads.FamilyProbe(fam, in.base()+base+int64(j)*drawStride)
}

// probe returns timed probe j (families rotate round-robin). Warm-up
// probes come from their own seed space.
func (in *inputs) probe(j int) (doc, error) {
	return in.probeFrom(probeSeedBase, j, "probe")
}

func (in *inputs) warmProbe(j int) (doc, error) {
	return in.probeFrom(warmSeedBase, j, "warm-up probe")
}

func (in *inputs) probeFrom(base int64, j int, what string) (doc, error) {
	return in.memoized(fmt.Sprintf("%d/%d", base, j), func() (doc, error) {
		fam := j % workloads.NumFamilies()
		s := in.familyDraw(base, j, fam)
		return in.claimed(encodeDoc("", fam, s))(fmt.Sprintf("%s %d", what, j))
	})
}

// write returns churn write j: a fresh draw of the family of corpus
// entry name, registered under that name (a replace).
func (in *inputs) write(j int, name string) (doc, error) {
	return in.memoized(fmt.Sprintf("%d/%d", writeSeedBase, j), func() (doc, error) {
		fam := familyOf(name)
		s := in.familyDraw(writeSeedBase, j, fam)
		s.Name = name
		return in.claimed(encodeDoc(name, fam, s))(fmt.Sprintf("write %d", j))
	})
}

// pairInput is one /match request: two ~420-node synthetic schemas and
// the generator's gold leaf mapping.
type pairInput struct {
	src, dst doc
	gold     workloads.Gold
}

// pair returns pair j (warm-up pairs use negative j).
func (in *inputs) pair(j int) (pairInput, error) {
	in.mu.Lock()
	p, ok := in.pairs[j]
	in.mu.Unlock()
	if ok {
		return p, nil
	}
	w := workloads.Synthetic(workloads.SyntheticSpec{
		Tables: 8, ColsPerTable: 50, Depth: 2,
		Seed:   in.base() + pairSeedBase + int64(j)*2,
		Rename: 0.3, Renest: 0.2,
	})
	src, err := encodeDoc("", -1, w.Source)
	if err != nil {
		return pairInput{}, err
	}
	dst, err := encodeDoc("", -1, w.Target)
	if err != nil {
		return pairInput{}, err
	}
	if !in.claim(src.fp, fmt.Sprintf("pair %d source", j)) || !in.claim(dst.fp, fmt.Sprintf("pair %d target", j)) {
		return pairInput{}, fmt.Errorf("pair %d repeats another input", j)
	}
	p = pairInput{src: src, dst: dst, gold: w.Gold}
	in.mu.Lock()
	in.pairs[j] = p
	in.mu.Unlock()
	return p, nil
}

// Request bodies, as cupidd's handlers decode them.

type schemaRef struct {
	Format  string `json:"format"`
	Content string `json:"content"`
}

func registerBody(d doc) []byte {
	return mustJSON(map[string]string{"name": d.name, "format": "json", "content": string(d.content)})
}

func batchBody(d doc, topK int) []byte {
	return mustJSON(map[string]any{"source": schemaRef{"json", string(d.content)}, "topK": topK})
}

func matchBody(p pairInput) []byte {
	return mustJSON(map[string]any{
		"source": schemaRef{"json", string(p.src.content)},
		"target": schemaRef{"json", string(p.dst.content)},
	})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings always encode
	}
	return b
}
