package linguistic

import (
	"strings"
	"sync"

	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/thesaurus"
)

// The comparison kernel. A schema's name token sets share few distinct
// tokens (a 400-element schema typically has a few dozen), while the
// element-pair sweep compares tokens hundreds of thousands of times. So
// every token list a match compares is interned once into a local
// vocabulary (TokenSets), and each match first fills one dense
// |Va|×|Vb| table of token similarities: every distinct token pair is
// scored exactly once, and the sweeps then read the table by index. The
// table belongs to one call, so all per-match state is call-local: nothing
// is shared between goroutines or calls, and nothing grows with the
// number of matches. Only its storage outlives the call, in a pool that
// the next call draws from.

// vocabToken is one distinct token of a vocabulary, with the thesaurus
// key, its relation bit and the substring operand precomputed, so that
// scoring a token pair needs no normalization.
type vocabToken struct {
	Token
	key     string // thesaurus.Key(Raw); content tokens only
	lower   string // lower-cased Raw, the SubstringSim operand
	related bool   // the thesaurus has some entry for key
}

func newVocabToken(th *thesaurus.Thesaurus, t Token) vocabToken {
	v := vocabToken{Token: t}
	if t.Type == TokenContent {
		v.key = thesaurus.Key(t.Raw)
		v.lower = strings.ToLower(t.Raw)
		v.related = th.Related(v.key)
	}
	return v
}

// idSet is one token set as vocabulary IDs, grouped by token type in
// ByType order: the IDs of type tt are ids[end[tt-1]:end[tt]].
type idSet struct {
	ids []uint32
	end [NumTokenTypes]int32
}

func (s *idSet) byType(tt TokenType) []uint32 {
	var start int32
	if tt > 0 {
		start = s.end[tt-1]
	}
	return s.ids[start:s.end[tt]]
}

// TokenSets is a list of normalized token sets interned over one local
// vocabulary of their distinct tokens. It is immutable after Intern and
// safe for concurrent use. Like a SchemaInfo, it holds thesaurus keys
// computed when it was built, so the thesaurus must not change afterwards.
type TokenSets struct {
	sets  []TokenSet
	ids   []idSet
	vocab []vocabToken
}

// Intern builds the vocabulary of the given token sets (set i of the
// result is sets[i]). Token sets that are compared many times against
// another list — the path names of ModeLinguisticOnly — are interned once
// and compared with NameSimMatrix.
func (m *Matcher) Intern(sets []TokenSet) *TokenSets {
	ts := intern(m.Th, sets)
	return &ts
}

// Len returns the number of token sets.
func (ts *TokenSets) Len() int { return len(ts.sets) }

func intern(th *thesaurus.Thesaurus, sets []TokenSet) TokenSets {
	total := 0
	for _, s := range sets {
		total += len(s.Tokens)
	}
	out := TokenSets{sets: sets, ids: make([]idSet, len(sets))}
	buf := make([]uint32, 0, total)
	index := make(map[Token]uint32, total) // total bounds the distinct count
	for i, s := range sets {
		start := len(buf)
		for tt := TokenType(0); tt < NumTokenTypes; tt++ {
			for _, t := range s.ByType(tt) {
				id, ok := index[t]
				if !ok {
					id = uint32(len(index))
					index[t] = id
				}
				buf = append(buf, id)
			}
			out.ids[i].end[tt] = int32(len(buf) - start)
		}
		out.ids[i].ids = buf[start:len(buf):len(buf)]
	}
	// Allocated once at its exact size, now that the index has counted the
	// distinct tokens: an appended vocabulary's growth cost more than the
	// vocabulary itself.
	out.vocab = make([]vocabToken, len(index))
	for t, id := range index {
		out.vocab[id] = newVocabToken(th, t)
	}
	return out
}

// simTable is the dense token-similarity table of one pair of
// vocabularies: cells[i*cols+j] = sim(a.vocab[i], b.vocab[j]). Together
// with the compatible-category rows it is all the working storage of one
// comparison, and it comes from a pool: every call takes a table with
// newSimTable and releases it before returning, so that a call allocates
// only what it returns.
type simTable struct {
	cols  int
	cells []float64
	rows  [][]catPair // compatibleRows' storage
}

var simTables = sync.Pool{New: func() any { return new(simTable) }}

// newSimTable takes a table from the pool and scores every token pair of
// the two vocabularies into it once.
func (m *Matcher) newSimTable(a, b *TokenSets) *simTable {
	t := simTables.Get().(*simTable)
	t.cols = len(b.vocab)
	if n := len(a.vocab) * len(b.vocab); cap(t.cells) >= n {
		t.cells = t.cells[:n] // every cell is written below
	} else {
		t.cells = make([]float64, n)
	}
	for i := range a.vocab {
		x := &a.vocab[i]
		row := t.cells[i*t.cols : (i+1)*t.cols]
		for j := range b.vocab {
			row[j] = m.vocabSim(x, &b.vocab[j])
		}
	}
	return t
}

// release returns the table to the pool; the caller must not use it
// afterwards.
func (t *simTable) release() { simTables.Put(t) }

// vocabSim is the token similarity of §5.2 over precomputed vocabulary
// tokens: the value of thesaurus.Sim on the raw words for content tokens
// with different stems, with the relation tables consulted only when both
// keys have an entry.
func (m *Matcher) vocabSim(a, b *vocabToken) float64 {
	if a.Type != b.Type {
		return 0
	}
	if a.Type != TokenContent {
		if a.Raw == b.Raw {
			return 1
		}
		return 0
	}
	if a.Stem == b.Stem || (a.key == b.key && a.key != "") {
		return 1
	}
	if a.related && b.related {
		if s, ok := m.Th.LookupKeys(a.key, b.key); ok {
			return s
		}
	}
	return thesaurus.SubstringSim(a.lower, b.lower)
}

// setSim is Matcher.setSim over two same-type ID lists.
func (t *simTable) setSim(a, b []uint32) float64 {
	if len(a)+len(b) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range a {
		row := t.cells[int(x)*t.cols:]
		best := 0.0
		for _, y := range b {
			if s := row[y]; s > best {
				best = s
			}
		}
		sum += best
	}
	for _, y := range b {
		best := 0.0
		for _, x := range a {
			if s := t.cells[int(x)*t.cols+int(y)]; s > best {
				best = s
			}
		}
		sum += best
	}
	return sum / float64(len(a)+len(b))
}

// nameSimAt is NameSimTS(a.sets[i], b.sets[j]) read from the table of a
// and b's vocabularies.
func (m *Matcher) nameSimAt(t *simTable, a *TokenSets, i int, b *TokenSets, j int) float64 {
	x, y := &a.ids[i], &b.ids[j]
	var num, den float64
	for tt := TokenType(0); tt < NumTokenTypes; tt++ {
		s1, s2 := x.byType(tt), y.byType(tt)
		size := float64(len(s1) + len(s2))
		if size == 0 {
			continue
		}
		w := m.P.Weights[tt]
		num += w * t.setSim(s1, s2) * size
		den += w * size
	}
	return m.finishNameSim(num, den, a.sets[i], b.sets[j])
}

// NameSimMatrix returns the name similarity of every pair of token sets,
// NameSimTS(a set i, b set j) in cell (i, j). Rows fan out over the worker
// pool; each writes only its own row, so the result does not depend on
// the worker count.
func (m *Matcher) NameSimMatrix(a, b *TokenSets) matrix.Matrix {
	t := m.newSimTable(a, b)
	defer t.release()
	out := matrix.New(a.Len(), b.Len())
	par.For(a.Len(), func(i int) {
		row := out.Row(i)
		for j := range row {
			row[j] = m.nameSimAt(t, a, i, b, j)
		}
	})
	return out
}
