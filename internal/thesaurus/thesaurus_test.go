package thesaurus

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestPorterStemmer(t *testing.T) {
	// Classic examples from Porter's paper plus schema-matching vocabulary.
	cases := map[string]string{
		"caresses":    "caress",
		"ponies":      "poni",
		"ties":        "ti",
		"caress":      "caress",
		"cats":        "cat",
		"feed":        "feed",
		"agreed":      "agre",
		"plastered":   "plaster",
		"bled":        "bled",
		"motoring":    "motor",
		"sing":        "sing",
		"conflated":   "conflat",
		"troubled":    "troubl",
		"sized":       "size",
		"hopping":     "hop",
		"tanned":      "tan",
		"falling":     "fall",
		"hissing":     "hiss",
		"fizzed":      "fizz",
		"failing":     "fail",
		"filing":      "file",
		"happy":       "happi",
		"sky":         "sky",
		"relational":  "relat",
		"conditional": "condit",
		"rational":    "ration",
		"valenci":     "valenc",
		"digitizer":   "digit",
		"triplicate":  "triplic",
		"formative":   "form",
		"formalize":   "formal",
		"electrical":  "electr",
		"hopeful":     "hope",
		"goodness":    "good",
		"revival":     "reviv",
		"allowance":   "allow",
		"inference":   "infer",
		"airliner":    "airlin",
		"adjustment":  "adjust",
		"dependent":   "depend",
		"adoption":    "adopt",
		"communism":   "commun",
		"activate":    "activ",
		"angulariti":  "angular",
		"homologous":  "homolog",
		"effective":   "effect",
		"bowdlerize":  "bowdler",
		"probate":     "probat",
		"rate":        "rate",
		"cease":       "ceas",
		"controll":    "control",
		"roll":        "roll",
		// Schema vocabulary the matcher depends on.
		"lines":      "line",
		"items":      "item",
		"shipping":   "ship",
		"billing":    "bill",
		"addresses":  "address",
		"quantities": "quantiti",
		"orders":     "order",
		"customers":  "custom",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemNonAlpha(t *testing.T) {
	for _, w := range []string{"", "a", "ab", "123", "a1b", "naïve", "x_y"} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

// Property: stemming is idempotent for plain lower-case words — a second
// application never changes the result. (A well-known property of Porter
// for practical purposes; we check it over a fixed vocabulary rather than
// random strings because random strings rarely form valid words.)
func TestStemIdempotent(t *testing.T) {
	words := []string{
		"shipping", "ordered", "addresses", "customers", "payments",
		"territories", "regions", "quantities", "descriptions", "invoices",
		"deliveries", "organizations", "relational", "probabilistic",
	}
	for _, w := range words {
		once := Stem(w)
		if twice := Stem(once); twice != once {
			t.Errorf("Stem not idempotent on %q: %q -> %q", w, once, twice)
		}
	}
}

func TestLookupSynonymAndHypernym(t *testing.T) {
	th := New()
	th.AddSynonym("invoice", "bill", 1.0)
	th.AddHypernym("customer", "person", 0.7)

	if s, ok := th.Lookup("invoice", "bill"); !ok || s != 1.0 {
		t.Errorf("Lookup(invoice,bill) = %v,%v", s, ok)
	}
	// Symmetric.
	if s, ok := th.Lookup("bill", "invoice"); !ok || s != 1.0 {
		t.Errorf("Lookup(bill,invoice) = %v,%v", s, ok)
	}
	// Stemmed: inflected forms share the entry.
	if s, ok := th.Lookup("Billing", "Invoices"); !ok || s != 1.0 {
		t.Errorf("Lookup(Billing,Invoices) = %v,%v", s, ok)
	}
	if s, ok := th.Lookup("person", "customer"); !ok || s != 0.7 {
		t.Errorf("hypernym lookup = %v,%v", s, ok)
	}
	// Equal stems are always 1.
	if s, ok := th.Lookup("order", "Orders"); !ok || s != 1.0 {
		t.Errorf("equal-stem lookup = %v,%v", s, ok)
	}
	if _, ok := th.Lookup("apple", "carburetor"); ok {
		t.Error("unrelated words should have no entry")
	}
	// The keyed forms: every word of an entry is related, under its key.
	if s, ok := th.LookupKeys(Key("Billing"), Key("Invoices")); !ok || s != 1.0 {
		t.Errorf("LookupKeys(Key(Billing),Key(Invoices)) = %v,%v", s, ok)
	}
	for _, w := range []string{"invoice", "Bills", "customers", "person"} {
		if !th.Related(Key(w)) {
			t.Errorf("Related(Key(%q)) = false, want true", w)
		}
	}
	if th.Related(Key("apple")) {
		t.Error("Related(Key(apple)) = true for a word with no entry")
	}
}

func TestStrengthClamped(t *testing.T) {
	th := New()
	th.AddSynonym("a", "b", 3.5)
	th.AddSynonym("c", "d", -1)
	if s, _ := th.Lookup("a", "b"); s != 1 {
		t.Errorf("strength not clamped high: %v", s)
	}
	if s, _ := th.Lookup("c", "d"); s != 0 {
		t.Errorf("strength not clamped low: %v", s)
	}
}

func TestSubstringSim(t *testing.T) {
	if got := SubstringSim("address", "address"); got != 1 {
		t.Errorf("identical = %v", got)
	}
	// Common suffix "address" inside "streetaddress" (7/13).
	if got := SubstringSim("address", "streetaddress"); got <= 0.4 {
		t.Errorf("suffix overlap = %v, want > 0.4", got)
	}
	// Common prefix.
	if got := SubstringSim("custname", "custid"); got <= 0 {
		t.Errorf("prefix overlap = %v, want > 0", got)
	}
	// Too-short overlap is rejected.
	if got := SubstringSim("cat", "carburetor"); got != 0 {
		t.Errorf("short overlap = %v, want 0", got)
	}
	if got := SubstringSim("", "x"); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
	// Whole-shorter-word overlap passes even under 3 chars.
	if got := SubstringSim("id", "identifier"); got == 0 {
		t.Error("whole-short-word prefix should score")
	}
}

// Properties of SubstringSim: symmetric, bounded in [0,1], strictly 1 only
// for equal strings.
func TestSubstringSimProperties(t *testing.T) {
	f := func(a, b string) bool {
		s1 := SubstringSim(a, b)
		s2 := SubstringSim(b, a)
		if s1 != s2 {
			return false
		}
		if s1 < 0 || s1 > 1 {
			return false
		}
		if s1 == 1 && a != b {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Sim is symmetric and in [0,1] for arbitrary inputs.
func TestSimProperties(t *testing.T) {
	th := Base()
	f := func(a, b string) bool {
		s1 := th.Sim(a, b)
		s2 := th.Sim(b, a)
		return s1 == s2 && s1 >= 0 && s1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestExpandAndStopwordsAndConcepts(t *testing.T) {
	th := Base()
	exp := th.Expand("PO")
	if len(exp) != 2 || exp[0] != "purchase" || exp[1] != "order" {
		t.Errorf("Expand(PO) = %v", exp)
	}
	if th.Expand("zzz") != nil {
		t.Error("unknown abbreviation should expand to nil")
	}
	if !th.IsStopword("of") || !th.IsStopword("The") {
		t.Error("stop-words missing")
	}
	if th.IsStopword("order") {
		t.Error("order should not be a stop-word")
	}
	for _, w := range []string{"price", "cost", "value"} {
		if c, ok := th.Concept(w); !ok || c != "money" {
			t.Errorf("Concept(%q) = %q,%v, want money", w, c, ok)
		}
	}
	if _, ok := th.Concept("widget"); ok {
		t.Error("widget should carry no concept")
	}
}

func TestBasePaperEntries(t *testing.T) {
	th := Base()
	// The exact entries the paper's CIDX-Excel experiment relied on.
	if s := th.Sim("Invoice", "Bill"); s != 1.0 {
		t.Errorf("Sim(Invoice,Bill) = %v, want 1.0", s)
	}
	if s := th.Sim("Ship", "Deliver"); s != 1.0 {
		t.Errorf("Sim(Ship,Deliver) = %v, want 1.0", s)
	}
	for _, a := range []string{"uom", "qty", "num", "po"} {
		if th.Expand(a) == nil {
			t.Errorf("base thesaurus missing abbreviation %q", a)
		}
	}
	// Hypernym from canonical example 4: Person > Customer.
	if s, ok := th.Lookup("Person", "Customer"); !ok || s <= 0 {
		t.Errorf("Lookup(Person,Customer) = %v,%v", s, ok)
	}
}

func TestMerge(t *testing.T) {
	base := New()
	base.AddSynonym("a", "b", 0.5)
	over := New()
	over.AddSynonym("a", "b", 0.9)
	over.AddAbbreviation("x", "extra")
	over.AddStopword("um")
	over.AddConcept("dollar", "money")
	over.AddHypernym("cat", "animal", 0.8)
	base.Merge(over)
	if s, _ := base.Lookup("a", "b"); s != 0.9 {
		t.Errorf("merge should overwrite: %v", s)
	}
	if base.Expand("x") == nil || !base.IsStopword("um") {
		t.Error("merge lost abbreviation or stopword")
	}
	if c, ok := base.Concept("dollar"); !ok || c != "money" {
		t.Error("merge lost concept")
	}
	if s, ok := base.Lookup("cat", "animal"); !ok || s != 0.8 {
		t.Errorf("merge lost hypernym: %v,%v", s, ok)
	}
	if !base.Related(Key("cat")) || !base.Related(Key("animal")) {
		t.Error("merge lost the relation bits of the hypernym's words")
	}
	if c, ok := base.ConceptKey(Key("dollars")); !ok || c != "money" {
		t.Error("ConceptKey misses the merged concept")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	th := New()
	th.AddSynonym("invoice", "bill", 1.0)
	th.AddHypernym("customer", "person", 0.7)
	th.AddAbbreviation("po", "purchase", "order")
	th.AddStopword("of")
	th.AddConcept("price", "money")

	var buf bytes.Buffer
	if err := th.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if s, ok := got.Lookup("invoice", "bill"); !ok || s != 1.0 {
		t.Errorf("round-trip synonym = %v,%v", s, ok)
	}
	if s, ok := got.Lookup("customer", "person"); !ok || s != 0.7 {
		t.Errorf("round-trip hypernym = %v,%v", s, ok)
	}
	if exp := got.Expand("po"); len(exp) != 2 {
		t.Errorf("round-trip abbreviation = %v", exp)
	}
	if !got.IsStopword("of") {
		t.Error("round-trip lost stopword")
	}
	if c, ok := got.Concept("price"); !ok || c != "money" {
		t.Error("round-trip lost concept")
	}
	if !got.Related(Key("bill")) || !got.Related(Key("person")) {
		t.Error("round-trip lost relation bits")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(bytes.NewReader([]byte(`{"bogus":[]}`))); err == nil {
		t.Error("ReadJSON accepted unknown fields")
	}
	if _, err := ReadJSON(bytes.NewReader([]byte(`not json`))); err == nil {
		t.Error("ReadJSON accepted garbage")
	}
}

func TestSize(t *testing.T) {
	th := Base()
	syn, hyp, abbr, stop, conc := th.Size()
	if syn == 0 || hyp == 0 || abbr == 0 || stop == 0 || conc == 0 {
		t.Errorf("Base thesaurus has empty sections: %d %d %d %d %d", syn, hyp, abbr, stop, conc)
	}
}
