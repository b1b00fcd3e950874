package corpus

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/model"
)

// sigOf builds a signature from a token list; affinity between two such
// signatures is dominated by token Jaccard (sizes equal).
func sigOf(tokens ...string) model.Signature {
	return model.NewSignature(len(tokens), len(tokens), append([]string(nil), tokens...))
}

// cliqueItems builds `size` items named <prefix>-i whose signatures share
// `common` family tokens plus one private token each — mutually high
// affinity inside the clique, near-zero across cliques with disjoint
// family tokens.
func cliqueItems(prefix string, size int, common ...string) []Item {
	out := make([]Item, size)
	for i := range out {
		toks := append([]string(nil), common...)
		toks = append(toks, fmt.Sprintf("%s-priv%d", prefix, i))
		out[i] = Item{Key: fmt.Sprintf("%s-%d", prefix, i), Sig: sigOf(toks...)}
	}
	return out
}

// exactNeighbors is the brute-force candidate generator: the k nearest
// other items by exact affinity, ties by key — the idealized stand-in
// for the inverted index.
func exactNeighbors(items []Item) NeighborFunc {
	return func(sig model.Signature, k int) []Neighbor {
		all := make([]Neighbor, 0, len(items))
		for _, it := range items {
			all = append(all, Neighbor{Key: it.Key, Affinity: sig.Affinity(it.Sig)})
		}
		for i := 1; i < len(all); i++ {
			for j := i; j > 0; j-- {
				a, b := all[j], all[j-1]
				if a.Affinity > b.Affinity || (a.Affinity == b.Affinity && a.Key < b.Key) {
					all[j], all[j-1] = b, a
					continue
				}
				break
			}
		}
		if k > 0 && k < len(all) {
			all = all[:k]
		}
		return all
	}
}

func familiesOf(r *Result) []string {
	out := make([]string, len(r.Families))
	for i, f := range r.Families {
		out[i] = fmt.Sprintf("%s:%d", f.Medoid, len(f.Members))
	}
	return out
}

func TestClusterSeparatesDisjointCliques(t *testing.T) {
	items := append(cliqueItems("ord", 6, "order", "total", "customer"),
		cliqueItems("inv", 6, "invoice", "warehouse", "sku")...)
	res := Cluster(items, exactNeighbors(items), Options{})
	if len(res.Families) != 2 {
		t.Fatalf("families = %v, want the two cliques", familiesOf(res))
	}
	for _, f := range res.Families {
		pre := f.Medoid[:3]
		for _, m := range f.Members {
			if !strings.HasPrefix(m, pre) {
				t.Errorf("family %q contains cross-clique member %q", f.Medoid, m)
			}
		}
	}
	if res.Corpus != len(items) || res.Members() != len(items) {
		t.Errorf("corpus/members = %d/%d, want %d", res.Corpus, res.Members(), len(items))
	}
}

func TestClusterDeterministicAcrossInputOrder(t *testing.T) {
	items := append(cliqueItems("ord", 8, "order", "total", "customer"),
		cliqueItems("inv", 8, "invoice", "warehouse", "sku")...)
	base := Cluster(items, exactNeighbors(items), Options{})
	want, err := base.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]Item(nil), items...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got, err := Cluster(shuffled, exactNeighbors(items), Options{}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: clustering depends on input order:\n%s\nvs\n%s", trial, got, want)
		}
	}
}

// TestClusterMedoidElectionIgnoresMapOrder: a node's total edge weight is
// a float sum, whose value depends on the order of its terms. In the
// clique below n0's and n1's weights differ by one ulp depending on
// that order: summed in neighbor order n0 has the larger weight (and is
// the medoid), in other orders n1 can. Repeated clustering must elect the
// same medoid and encode byte-identically every time.
func TestClusterMedoidElectionIgnoresMapOrder(t *testing.T) {
	// (0.45+0.45)+0.5319 is one ulp above (0.45+0.5319)+0.45.
	aff := map[string][]Neighbor{
		"n0": {{"n1", 0.45}, {"n2", 0.45}, {"n3", 0.5319}},
		"n1": {{"n0", 0.45}, {"n2", 0.5319}, {"n3", 0.45}},
		"n2": {{"n0", 0.45}, {"n1", 0.45}, {"n3", 0.45}},
		"n3": {{"n0", 0.45}, {"n1", 0.45}, {"n2", 0.45}},
	}
	var items []Item
	for _, k := range []string{"n0", "n1", "n2", "n3"} {
		items = append(items, Item{Key: k, Sig: sigOf(k)})
	}
	neighbors := func(sig model.Signature, k int) []Neighbor { return aff[sig.Tokens[0]] }
	var want []byte
	for run := 0; run < 40; run++ {
		res := Cluster(items, neighbors, Options{})
		if len(res.Families) != 1 || res.Families[0].Medoid != "n0" {
			t.Fatalf("run %d: families %v, want one family with medoid n0", run, familiesOf(res))
		}
		got, err := res.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("run %d encodes differently:\n%s\nvs\n%s", run, got, want)
		}
	}
}

// TestClusterBridgePairDoesNotMergeFamilies is the single-link fragility
// guard: one freak high-affinity pair between two otherwise disjoint
// families must not chain them into one component, because the pair is
// not corroborated (no shared proposed neighbor).
func TestClusterBridgePairDoesNotMergeFamilies(t *testing.T) {
	items := append(cliqueItems("ord", 6, "order", "total", "customer"),
		cliqueItems("inv", 6, "invoice", "warehouse", "sku")...)
	nf := exactNeighbors(items)
	bridged := func(sig model.Signature, k int) []Neighbor {
		out := nf(sig, k)
		// Inject a mutual over-threshold proposal between one member of
		// each clique — the freak pair.
		key := ""
		for _, it := range items {
			if sig.Affinity(it.Sig) == 1 { // self
				key = it.Key
			}
		}
		switch key {
		case "ord-0":
			out = append([]Neighbor{{Key: "inv-0", Affinity: 0.9}}, out...)
		case "inv-0":
			out = append([]Neighbor{{Key: "ord-0", Affinity: 0.9}}, out...)
		}
		return out
	}
	res := Cluster(items, bridged, Options{})
	if len(res.Families) != 2 {
		t.Fatalf("a single uncorroborated bridge pair merged the cliques: %v", familiesOf(res))
	}
}

// TestClusterAbsorbsFragments: a member the bounded-out-degree candidate
// generation never connects (its family mates' neighbor lists are full of
// each other — simulated here by filtering it from every list) becomes a
// singleton component, but its signature is clearly nearest the ord
// family's medoid, so the absorption pass folds it back in.
func TestClusterAbsorbsFragments(t *testing.T) {
	items := append(cliqueItems("ord", 8, "order", "total", "customer"),
		Item{Key: "ord-weak", Sig: sigOf("order", "total", "customer", "ord-stray")})
	items = append(items, cliqueItems("inv", 8, "invoice", "warehouse", "sku")...)
	nf := exactNeighbors(items)
	crowdedOut := func(sig model.Signature, k int) []Neighbor {
		if sig.Affinity(sigOf("order", "total", "customer", "ord-stray")) == 1 {
			return nil // the weak member's own list proposes nobody
		}
		out := nf(sig, k)
		kept := out[:0]
		for _, nb := range out {
			if nb.Key != "ord-weak" {
				kept = append(kept, nb)
			}
		}
		return kept
	}
	res := Cluster(items, crowdedOut, Options{})
	if len(res.Families) != 2 {
		t.Fatalf("families = %v, want the crowded-out member absorbed into 2 families", familiesOf(res))
	}
	found := false
	for _, f := range res.Families {
		for _, m := range f.Members {
			if m == "ord-weak" {
				found = strings.HasPrefix(f.Medoid, "ord")
			}
		}
	}
	if !found {
		t.Fatalf("crowded-out member not absorbed into the ord family: %v", familiesOf(res))
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	items := append(cliqueItems("ord", 5, "order", "total", "customer"),
		cliqueItems("inv", 5, "invoice", "warehouse", "sku")...)
	res := Cluster(items, exactNeighbors(items), Options{})
	raw, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatalf("round trip not byte-identical:\n%s\nvs\n%s", raw, raw2)
	}
}

func TestDecodeRejectsMalformedResults(t *testing.T) {
	cases := map[string]string{
		"bad version":       `{"version":2,"corpus":1,"neighbors":8,"min_affinity":0.45,"families":[{"medoid":"a","members":["a"]}]}`,
		"unsorted families": `{"version":1,"corpus":2,"neighbors":8,"min_affinity":0.45,"families":[{"medoid":"b","members":["b"]},{"medoid":"a","members":["a"]}]}`,
		"unsorted members":  `{"version":1,"corpus":2,"neighbors":8,"min_affinity":0.45,"families":[{"medoid":"a","members":["b","a"]}]}`,
		"duplicate member":  `{"version":1,"corpus":2,"neighbors":8,"min_affinity":0.45,"families":[{"medoid":"a","members":["a"]},{"medoid":"b","members":["a","b"]}]}`,
		"medoid not member": `{"version":1,"corpus":1,"neighbors":8,"min_affinity":0.45,"families":[{"medoid":"a","members":["b"]}]}`,
		"empty family":      `{"version":1,"corpus":0,"neighbors":8,"min_affinity":0.45,"families":[{"medoid":"a","members":[]}]}`,
		"not json":          `nope`,
	}
	for name, raw := range cases {
		if _, err := Decode([]byte(raw)); err == nil {
			t.Errorf("%s: Decode accepted %s", name, raw)
		}
	}
}
