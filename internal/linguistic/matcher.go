package linguistic

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/thesaurus"
)

// Params controls the comparison step (§5.3).
type Params struct {
	// Weights are the per-token-type weights w_i of the name-similarity
	// formula. Content and concept tokens get greater weight than numbers,
	// symbols and common words. They must sum to 1 (Validate checks).
	Weights [NumTokenTypes]float64
	// Thns is the name-similarity threshold for category compatibility
	// (Table 1: typical value 0.5; used merely for pruning the number of
	// element-to-element comparisons).
	Thns float64
	// DisableAcronymDetection turns off the initialism heuristic (UOM vs
	// UnitOfMeasure matching without a thesaurus entry). On by default.
	DisableAcronymDetection bool
}

// DefaultParams returns the parameter values used throughout the paper's
// experiments.
func DefaultParams() Params {
	// Content and concept tokens carry the weight; numbers and symbols
	// contribute a little; common words (articles, prepositions,
	// conjunctions) are marked to be *ignored* during comparison (§5.1,
	// "Elimination"), so their weight is zero.
	var w [NumTokenTypes]float64
	w[TokenContent] = 0.6
	w[TokenConcept] = 0.25
	w[TokenNumber] = 0.1
	w[TokenCommon] = 0.0
	w[TokenSymbol] = 0.05
	return Params{Weights: w, Thns: 0.5}
}

// Validate reports parameter errors (weights must be non-negative and sum
// to 1 within a small tolerance; Thns must be in [0,1]).
func (p Params) Validate() error {
	sum := 0.0
	for i, w := range p.Weights {
		if w < 0 {
			return fmt.Errorf("linguistic: weight %s is negative", TokenType(i))
		}
		sum += w
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("linguistic: weights sum to %.3f, want 1", sum)
	}
	if p.Thns < 0 || p.Thns > 1 {
		return fmt.Errorf("linguistic: thns %.3f out of [0,1]", p.Thns)
	}
	return nil
}

// Matcher performs linguistic matching with one thesaurus and one
// parameter set. It holds no mutable state: every per-match structure
// (the token-similarity table of a schema pair, the category pairs, the
// lsim matrix) is local to the call, so a Matcher is safe for concurrent
// use — Analyze, NameSim(TS), CompatiblePairs, LSim and BlendDescriptions
// may be called from many goroutines at once (LSim itself fans its inner
// loops out over a bounded worker pool). Analysis records thesaurus keys
// in the SchemaInfo, so neither P nor Th may be changed once schemas have
// been analyzed with them. SchemaInfos analyzed by one Matcher may be
// matched by another over the same thesaurus.
type Matcher struct {
	Th *thesaurus.Thesaurus
	P  Params
}

// NewMatcher returns a matcher over the given thesaurus (nil means an
// empty thesaurus) with default parameters.
func NewMatcher(th *thesaurus.Thesaurus) *Matcher {
	if th == nil {
		th = thesaurus.New()
	}
	return &Matcher{Th: th, P: DefaultParams()}
}

// tokenSim returns sim(t1, t2) for two tokens of the same type. Content
// tokens go through the thesaurus (with substring fallback); the other
// types compare by surface equality — a number matches only the same
// number, a symbol the same symbol, a concept the same concept. The
// schema-level sweeps read the same values from a simTable.
func (m *Matcher) tokenSim(a, b Token) float64 {
	va, vb := newVocabToken(m.Th, a), newVocabToken(m.Th, b)
	return m.vocabSim(&va, &vb)
}

// setSim is ns(T1, T2) over two same-type token lists: the average of the
// best similarity of each token with a token in the other set (paper §5.2).
// Empty-versus-nonempty scores 0; empty-versus-empty is undefined and the
// caller skips it.
func (m *Matcher) setSim(t1, t2 []Token) float64 {
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

// NameSimTS computes the name similarity of two normalized token sets as
// the weighted mean of the per-token-type name similarities (§5.3):
//
//	ns(m1,m2) = Σ_i w_i·ns(T1i,T2i)·(|T1i|+|T2i|) / Σ_i w_i·(|T1i|+|T2i|)
func (m *Matcher) NameSimTS(ts1, ts2 TokenSet) float64 {
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
	return m.finishNameSim(num, den, ts1, ts2)
}

// finishNameSim divides the weighted per-type sums of a name similarity
// and applies the acronym floor.
func (m *Matcher) finishNameSim(num, den float64, ts1, ts2 TokenSet) float64 {
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

// NameSim normalizes two raw names and returns their name similarity.
func (m *Matcher) NameSim(a, b string) float64 {
	return m.NameSimTS(Normalize(a, m.Th), Normalize(b, m.Th))
}

// Category is a group of schema elements identified by a set of keywords
// (paper §5.2). Compatible categories (name-similar keyword sets) prune
// the element-to-element comparisons.
type Category struct {
	// Name identifies the category in diagnostics, e.g. "concept:money",
	// "type:number", "container:PO.POBillTo".
	Name string
	// Keywords is the normalized keyword set that identifies the category.
	Keywords TokenSet
	// Members lists the IDs of the member elements.
	Members []int
}

// SchemaInfo is the result of linguistic analysis of one schema: the
// normalized token set of every element and the element categories. It is
// immutable once analyzed (the description cache fills once, under a
// sync.Once) and safe for concurrent use.
type SchemaInfo struct {
	Schema *model.Schema
	// Tokens is indexed by element ID.
	Tokens []TokenSet
	// Categories in deterministic creation order.
	Categories []Category
	// memberCats maps element ID -> indexes into Categories.
	memberCats [][]int
	// names interns every element's token set (element id is set id)
	// followed by the keyword sets of the concept and type categories;
	// catSet maps a category to its keyword set (a container category's
	// keywords are its container element's name).
	names  TokenSets
	catSet []int
	// descToks lazily caches the filtered description token set per
	// element (see Matcher.descTokens); nil entries mean no usable
	// description. descs interns them by element ID (empty when no
	// element has one).
	descOnce sync.Once
	descToks []*TokenSet
	descs    TokenSets
}

// CategoriesOf returns the indexes of the categories the element belongs
// to.
func (si *SchemaInfo) CategoriesOf(id int) []int { return si.memberCats[id] }

// Analyze normalizes every element name of the schema and clusters the
// elements into categories: one per concept tag, one per broad data type,
// and one per container (§5.2). Elements tagged not-instantiated are
// excluded from categories — the paper chooses not to linguistically match
// elements with no significant name, such as keys.
func (m *Matcher) Analyze(s *model.Schema) *SchemaInfo {
	si := &SchemaInfo{
		Schema:     s,
		Tokens:     make([]TokenSet, s.Len()),
		memberCats: make([][]int, s.Len()),
	}
	for _, e := range s.Elements() {
		si.Tokens[e.ID()] = Normalize(e.Name, m.Th)
	}
	catIndex := map[string]int{}
	// member adds element id to the category under key, reporting false
	// when there is no such category yet; newCategory then creates it
	// (its keyword set and display name are built only then). set is the
	// element whose name is the keyword set, or -1 for a keyword set of
	// its own.
	member := func(key string, id int) bool {
		idx, ok := catIndex[key]
		if ok {
			si.Categories[idx].Members = append(si.Categories[idx].Members, id)
			si.memberCats[id] = append(si.memberCats[id], idx)
		}
		return ok
	}
	newCategory := func(key, display string, keywords TokenSet, set, id int) {
		catIndex[key] = len(si.Categories)
		si.Categories = append(si.Categories, Category{Name: display, Keywords: keywords})
		si.catSet = append(si.catSet, set)
		member(key, id)
	}
	for _, e := range s.Elements() {
		// Keys and other insignificant names are skipped; RefInts and
		// views stay in, because schema-tree augmentation reifies them as
		// join-view nodes that can be matched (§8.3).
		if e.NotInstantiated && e.Kind != model.KindRefInt && e.Kind != model.KindView {
			continue
		}
		id := e.ID()
		ts := si.Tokens[id]
		// Concept categories: one per unique concept tag in the schema.
		for _, tok := range ts.ByType(TokenConcept) {
			if key := "concept:" + tok.Raw; !member(key, id) {
				newCategory(key, key,
					TokenSet{Tokens: []Token{{Raw: tok.Raw, Stem: tok.Raw, Type: TokenContent}}}.Partitioned(), -1, id)
			}
		}
		// Data-type categories for elements carrying a broad leaf type.
		if kw := e.Type.CategoryKeyword(); kw != "" {
			if key := "type:" + kw; !member(key, id) {
				newCategory(key, key,
					TokenSet{Tokens: []Token{{Raw: kw, Stem: thesaurus.Stem(kw), Type: TokenContent}}}.Partitioned(), -1, id)
			}
		}
		// Container categories: the containment parent groups its children
		// under its own (normalized) name.
		if p := e.Parent(); p != nil {
			if key := "container:" + strconv.Itoa(p.ID()); !member(key, id) {
				newCategory(key, "container:"+p.Path(), si.Tokens[p.ID()], p.ID(), id)
			}
		}
		// A container is identified by its own keyword too: it belongs to
		// the category it defines. Two containers are then comparable when
		// their own names are similar even if their parents' names are not
		// (e.g. Item under POLines vs Item under Items), and the root —
		// which has no parent — still lands in a category of its own.
		if len(e.Children()) > 0 || len(e.DerivedFrom()) > 0 {
			if key := "container:" + strconv.Itoa(id); !member(key, id) {
				newCategory(key, "container:"+e.Path(), ts, id, id)
			}
		}
	}
	sets := make([]TokenSet, len(si.Tokens), len(si.Tokens)+len(si.catSet))
	copy(sets, si.Tokens)
	for c, set := range si.catSet {
		if set < 0 {
			si.catSet[c] = len(sets)
			sets = append(sets, si.Categories[c].Keywords)
		}
	}
	si.names = intern(m.Th, sets)
	si.Tokens = sets[:len(si.Tokens):len(si.Tokens)] // one copy of the element sets
	return si
}

// CompatiblePairs computes, for two analyzed schemas, the pairs of
// categories whose keyword sets are name-similar above Thns, together with
// the name similarity of the keyword sets (used later to scale lsim).
func (m *Matcher) CompatiblePairs(a, b *SchemaInfo) map[[2]int]float64 {
	t := m.newSimTable(&a.names, &b.names)
	defer t.release()
	out := make(map[[2]int]float64)
	for i, row := range m.compatibleRows(t, a, b) {
		for _, c := range row {
			out[[2]int{i, c.j}] = c.ns
		}
	}
	return out
}

// compatibleRows lists, for every category of a, the compatible
// categories of b in index order, in storage owned by t (valid until t is
// released). The category-pair sweep is quadratic in the number of
// categories, so rows fan out over the par worker pool; each worker fills
// its own row, making the result identical to the sequential sweep.
func (m *Matcher) compatibleRows(t *simTable, a, b *SchemaInfo) [][]catPair {
	n := len(a.Categories)
	if cap(t.rows) < n {
		// Keep the rows' arrays, so that their capacity is reused too.
		t.rows = append(t.rows[:cap(t.rows)], make([][]catPair, n-cap(t.rows))...)
	}
	rows := t.rows[:n]
	par.For(n, func(i int) {
		row := rows[i][:0]
		for j := range b.Categories {
			ns := m.nameSimAt(t, &a.names, a.catSet[i], &b.names, b.catSet[j])
			if ns >= m.P.Thns {
				row = append(row, catPair{j: j, ns: ns})
			}
		}
		rows[i] = row
	})
	return rows
}

// catPair is one compatible target category in a source category's row.
type catPair struct {
	j  int
	ns float64
}

// LSim computes the table of linguistic similarity coefficients between the
// elements of two schemas (§5.3):
//
//	lsim(m1,m2) = ns(m1,m2) · max{ns(c1,c2) : c1∈C1, c2∈C2 compatible}
//
// Similarity is zero for element pairs that share no compatible categories.
// The result is indexed (elementID of a, elementID of b).
//
// One token-similarity table of the two schemas' vocabularies serves both
// the category and the element comparisons. The matrix first receives
// each element pair's scale (max is order-independent); then the
// element-pair comparisons — the dominant cost of the whole pipeline — run
// on the par worker pool, one matrix row per task, replacing every
// nonzero scale by NameSimTS·scale. The parallel result is therefore
// bit-identical to the sequential one.
func (m *Matcher) LSim(a, b *SchemaInfo) matrix.Matrix {
	t := m.newSimTable(&a.names, &b.names)
	defer t.release()
	lsim := matrix.New(len(a.Tokens), len(b.Tokens))
	for i, row := range m.compatibleRows(t, a, b) {
		for _, c := range row {
			for _, ma := range a.Categories[i].Members {
				cells := lsim.Row(ma)
				for _, mb := range b.Categories[c.j].Members {
					if c.ns > cells[mb] {
						cells[mb] = c.ns
					}
				}
			}
		}
	}
	par.For(lsim.Rows(), func(i int) {
		row := lsim.Row(i)
		for j, scale := range row {
			if scale > 0 {
				row[j] = m.nameSimAt(t, &a.names, i, &b.names, j) * scale
			}
		}
	})
	return lsim
}
