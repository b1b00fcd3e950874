// Package thesaurus implements the auxiliary linguistic knowledge Cupid
// consumes (paper §5): a synonym and hypernym thesaurus whose entries are
// annotated with relationship-strength coefficients in [0,1], abbreviation
// and acronym expansion tables, stop-words ignored during comparison, and
// concept tagging (Price/Cost/Value -> Money). It also provides the Porter
// stemmer and the substring-based fallback similarity used when no
// thesaurus entry exists.
//
// The paper's prototype used hand-curated thesauri (and the MOMIS baseline
// used WordNet). No WordNet data is available offline, so this package
// ships a curated base thesaurus (Base) that covers common schema
// vocabulary plus the purchase-order domain terms of the paper's
// experiments; callers can extend it or load replacements from JSON.
package thesaurus

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// pair is a canonical unordered key over two stems.
type pair struct{ a, b string }

func mkPair(a, b string) pair {
	if a > b {
		a, b = b, a
	}
	return pair{a, b}
}

// Thesaurus holds all auxiliary linguistic knowledge. The zero value is not
// usable; call New or Base.
type Thesaurus struct {
	synonyms      map[pair]float64    // unordered stem pair -> strength
	hypernyms     map[pair]float64    // unordered stem pair -> strength (hyponym/hypernym)
	abbreviations map[string][]string // lower-case token -> expansion tokens
	stopwords     map[string]bool     // lower-case tokens ignored in comparison
	concepts      map[string]string   // stem -> concept name
	// related holds every key that occurs in a synonym or hypernym entry,
	// so a caller holding pre-normalized keys can skip the pair lookup
	// when either word has no entry at all (see Related).
	related map[string]bool
}

// New returns an empty thesaurus.
func New() *Thesaurus {
	return &Thesaurus{
		synonyms:      map[pair]float64{},
		hypernyms:     map[pair]float64{},
		abbreviations: map[string][]string{},
		stopwords:     map[string]bool{},
		concepts:      map[string]string{},
		related:       map[string]bool{},
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func norm(s string) string { return Stem(strings.ToLower(strings.TrimSpace(s))) }

// Key returns the key a word is looked up under: lower-cased, trimmed and
// stemmed. Lookup(a, b) is LookupKeys(Key(a), Key(b)), so callers that
// compare the same words many times can normalize each word once.
func Key(word string) string { return norm(word) }

// addRelation records the keyed pair in the given relation table.
func (t *Thesaurus) addRelation(rel map[pair]float64, p pair, strength float64) {
	rel[p] = strength
	t.related[p.a] = true
	t.related[p.b] = true
}

// AddSynonym records that a and b are synonyms with the given strength in
// [0,1] (values outside are clamped). Both words are stemmed, so inflected
// forms share the entry. The relation is symmetric.
func (t *Thesaurus) AddSynonym(a, b string, strength float64) {
	t.addRelation(t.synonyms, mkPair(norm(a), norm(b)), clamp01(strength))
}

// AddHypernym records that hyper is a hypernym of hypo (Person of Customer)
// with the given strength. Lookup is symmetric: the paper treats hypernymy
// as evidence of similarity regardless of direction.
func (t *Thesaurus) AddHypernym(hypo, hyper string, strength float64) {
	t.addRelation(t.hypernyms, mkPair(norm(hypo), norm(hyper)), clamp01(strength))
}

// AddAbbreviation records that token abbr expands to the given words, e.g.
// AddAbbreviation("po", "purchase", "order"). Expansion happens during
// normalization, before stemming.
func (t *Thesaurus) AddAbbreviation(abbr string, expansion ...string) {
	words := make([]string, len(expansion))
	for i, w := range expansion {
		words[i] = strings.ToLower(strings.TrimSpace(w))
	}
	t.abbreviations[strings.ToLower(strings.TrimSpace(abbr))] = words
}

// AddStopword marks a token as an ignorable common word (article,
// preposition, conjunction).
func (t *Thesaurus) AddStopword(w string) {
	t.stopwords[strings.ToLower(strings.TrimSpace(w))] = true
}

// AddConcept tags a word with a concept name, e.g. AddConcept("price",
// "money"). Schema elements whose tokens carry a concept are tagged with it
// and clustered into the concept's category.
func (t *Thesaurus) AddConcept(word, concept string) {
	t.concepts[norm(word)] = strings.ToLower(strings.TrimSpace(concept))
}

// Expand returns the expansion of an abbreviation or acronym, or nil when
// the token has no entry.
func (t *Thesaurus) Expand(token string) []string {
	return t.abbreviations[strings.ToLower(token)]
}

// IsStopword reports whether the token is an ignorable common word.
func (t *Thesaurus) IsStopword(token string) bool {
	return t.stopwords[strings.ToLower(token)]
}

// Concept returns the concept a word is tagged with, if any.
func (t *Thesaurus) Concept(word string) (string, bool) {
	return t.ConceptKey(norm(word))
}

// ConceptKey is Concept over a word already normalized with Key.
func (t *Thesaurus) ConceptKey(key string) (string, bool) {
	c, ok := t.concepts[key]
	return c, ok
}

// Lookup returns the thesaurus strength for the word pair: 1 for equal
// stems, otherwise the synonym entry, otherwise the hypernym entry,
// otherwise (0, false).
func (t *Thesaurus) Lookup(a, b string) (float64, bool) {
	return t.LookupKeys(norm(a), norm(b))
}

// LookupKeys is Lookup over two keys already normalized with Key.
func (t *Thesaurus) LookupKeys(ka, kb string) (float64, bool) {
	if ka == kb && ka != "" {
		return 1, true
	}
	p := mkPair(ka, kb)
	if s, ok := t.synonyms[p]; ok {
		return s, true
	}
	if s, ok := t.hypernyms[p]; ok {
		return s, true
	}
	return 0, false
}

// Related reports whether the key (see Key) occurs in any synonym or
// hypernym entry. When either of two distinct keys is unrelated,
// LookupKeys finds no entry for the pair.
func (t *Thesaurus) Related(key string) bool { return t.related[key] }

// Sim returns the similarity of two name tokens (paper §5.2, "Name
// Similarity"): the thesaurus strength when an entry exists, otherwise the
// substring similarity of the raw words.
func (t *Thesaurus) Sim(a, b string) float64 {
	if s, ok := t.Lookup(a, b); ok {
		return s
	}
	return SubstringSim(strings.ToLower(a), strings.ToLower(b))
}

// SubstringSim matches substrings of two words to identify common prefixes
// or suffixes (paper §5.2). It returns the length of the longest common
// prefix or suffix relative to the longer word, scaled by 0.9 so that a
// genuine thesaurus hit or equal stem always dominates, and 0 when the
// overlap is too short to be meaningful (fewer than 3 characters and less
// than the whole shorter word).
func SubstringSim(a, b string) float64 {
	if a == b {
		return 1
	}
	if a == "" || b == "" {
		return 0
	}
	p := 0
	for p < len(a) && p < len(b) && a[p] == b[p] {
		p++
	}
	s := 0
	for s < len(a) && s < len(b) && a[len(a)-1-s] == b[len(b)-1-s] {
		s++
	}
	best := p
	if s > best {
		best = s
	}
	shorter, longer := len(a), len(b)
	if shorter > longer {
		shorter, longer = longer, shorter
	}
	if best < 3 && best < shorter {
		return 0
	}
	return 0.9 * float64(best) / float64(longer)
}

// Merge copies every entry of other into t, overwriting duplicates. It lets
// callers layer a domain-specific thesaurus over the base one.
func (t *Thesaurus) Merge(other *Thesaurus) {
	for p, s := range other.synonyms {
		t.addRelation(t.synonyms, p, s)
	}
	for p, s := range other.hypernyms {
		t.addRelation(t.hypernyms, p, s)
	}
	for a, exp := range other.abbreviations {
		t.abbreviations[a] = append([]string(nil), exp...)
	}
	for w := range other.stopwords {
		t.stopwords[w] = true
	}
	for w, c := range other.concepts {
		t.concepts[w] = c
	}
}

// Size returns entry counts for diagnostics: synonyms, hypernyms,
// abbreviations, stop-words, concepts.
func (t *Thesaurus) Size() (syn, hyp, abbr, stop, conc int) {
	return len(t.synonyms), len(t.hypernyms), len(t.abbreviations),
		len(t.stopwords), len(t.concepts)
}

// --- JSON persistence -------------------------------------------------

type jsonEntry struct {
	A        string  `json:"a"`
	B        string  `json:"b"`
	Strength float64 `json:"strength"`
}

type jsonAbbrev struct {
	Abbr      string   `json:"abbr"`
	Expansion []string `json:"expansion"`
}

type jsonConcept struct {
	Word    string `json:"word"`
	Concept string `json:"concept"`
}

type jsonThesaurus struct {
	Synonyms      []jsonEntry   `json:"synonyms,omitempty"`
	Hypernyms     []jsonEntry   `json:"hypernyms,omitempty"`
	Abbreviations []jsonAbbrev  `json:"abbreviations,omitempty"`
	Stopwords     []string      `json:"stopwords,omitempty"`
	Concepts      []jsonConcept `json:"concepts,omitempty"`
}

// WriteJSON serializes the thesaurus (entries sorted for determinism).
// Note that synonym/hypernym words were stemmed on insertion, so the file
// records stems.
func (t *Thesaurus) WriteJSON(w io.Writer) error {
	var jt jsonThesaurus
	for p, s := range t.synonyms {
		jt.Synonyms = append(jt.Synonyms, jsonEntry{p.a, p.b, s})
	}
	for p, s := range t.hypernyms {
		jt.Hypernyms = append(jt.Hypernyms, jsonEntry{p.a, p.b, s})
	}
	for a, exp := range t.abbreviations {
		jt.Abbreviations = append(jt.Abbreviations, jsonAbbrev{a, exp})
	}
	for s := range t.stopwords {
		jt.Stopwords = append(jt.Stopwords, s)
	}
	for w, c := range t.concepts {
		jt.Concepts = append(jt.Concepts, jsonConcept{w, c})
	}
	sort.Slice(jt.Synonyms, func(i, j int) bool {
		return jt.Synonyms[i].A+"|"+jt.Synonyms[i].B < jt.Synonyms[j].A+"|"+jt.Synonyms[j].B
	})
	sort.Slice(jt.Hypernyms, func(i, j int) bool {
		return jt.Hypernyms[i].A+"|"+jt.Hypernyms[i].B < jt.Hypernyms[j].A+"|"+jt.Hypernyms[j].B
	})
	sort.Slice(jt.Abbreviations, func(i, j int) bool { return jt.Abbreviations[i].Abbr < jt.Abbreviations[j].Abbr })
	sort.Strings(jt.Stopwords)
	sort.Slice(jt.Concepts, func(i, j int) bool { return jt.Concepts[i].Word < jt.Concepts[j].Word })
	b, err := json.MarshalIndent(jt, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadJSON parses a thesaurus from its JSON serialization.
func ReadJSON(r io.Reader) (*Thesaurus, error) {
	var jt jsonThesaurus
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jt); err != nil {
		return nil, fmt.Errorf("thesaurus: decoding json: %w", err)
	}
	t := New()
	for _, e := range jt.Synonyms {
		t.AddSynonym(e.A, e.B, e.Strength)
	}
	for _, e := range jt.Hypernyms {
		t.AddHypernym(e.A, e.B, e.Strength)
	}
	for _, a := range jt.Abbreviations {
		t.AddAbbreviation(a.Abbr, a.Expansion...)
	}
	for _, s := range jt.Stopwords {
		t.AddStopword(s)
	}
	for _, c := range jt.Concepts {
		t.AddConcept(c.Word, c.Concept)
	}
	return t, nil
}
