package main

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", parent: -1, start: ms(0), end: ms(100)},
		{name: "a", parent: 0, start: ms(10), end: ms(30)},  // nested under root
		{name: "a1", parent: 1, start: ms(12), end: ms(20)}, // nested under a
		{name: "b", parent: 0, start: ms(30), end: ms(50)},  // adjacent to a
		{name: "c", parent: 0, start: ms(60), end: ms(80)},  // overlaps d
		{name: "d", parent: 0, start: ms(70), end: ms(90)},
		{name: "e", parent: 0, start: ms(95), end: ms(120)}, // runs past root: clipped
		{name: "other", parent: -1, start: ms(200), end: ms(210)},
	}
	want := []time.Duration{
		ms(100 - 20 - 20 - 30 - 5), // children cover [10,50] [60,90] [95,100]
		ms(20 - 8),
		ms(8),
		ms(20),
		ms(20),
		ms(20),
		ms(25),
		ms(10),
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
	// Self times of a strictly nested tree add up to the root's duration.
	var sum time.Duration
	for _, i := range []int{0, 1, 2, 3} {
		sum += selfTimes(spans[:4])[i]
	}
	if sum != ms(100) {
		t.Errorf("self times of a nested tree sum to %v, want the root's 100ms", sum)
	}
}

func TestSummarizeFromRebasesParents(t *testing.T) {
	spans := []span{
		{name: "earlier", parent: -1, start: ms(0), end: ms(5)},
		{name: "op", parent: -1, start: ms(10), end: ms(40)},
		{name: "parse", parent: 1, start: ms(10), end: ms(15)},
		{name: "parse", parent: 1, start: ms(20), end: ms(25)},
	}
	s := summarize(spans, 1)
	if s["earlier"] != nil {
		t.Fatal("a span before the starting index was summarized")
	}
	if op := s["op"]; op.calls != 1 || op.total != ms(30) || op.self != ms(20) {
		t.Errorf("op = %+v, want 1 call, 30ms total, 20ms self", *op)
	}
	if p := s["parse"]; p.calls != 2 || p.self != ms(10) {
		t.Errorf("parse = %+v, want 2 calls, 10ms self", *p)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder()
	r.op = 3
	r.timeIt("outer", func() { r.timeIt("inner", func() {}) })
	if len(r.spans) != 2 || r.spans[1].parent != 0 || r.spans[0].parent != -1 || r.spans[1].op != 3 {
		t.Fatalf("spans = %+v", r.spans)
	}
	var nilRec *recorder
	if d := nilRec.timeIt("x", func() { time.Sleep(time.Millisecond) }); d < time.Millisecond {
		t.Errorf("a nil recorder still times the call: got %v", d)
	}
}

func TestHighestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {99, 0}, {100, 90}, {101, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if p := percentile(xs, 90); p != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90 (10 samples beyond)", p)
	}
	if p := percentile(xs, 50); p != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", p)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

// roundTrip encodes v as cupidd does (indented JSON) and decodes it into out.
func roundTrip(t *testing.T, v, out any) {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
}

func smallReplica(t *testing.T) (*replica, *inputs) {
	t.Helper()
	in := newInputs(7)
	docs, err := in.corpus(60)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := newReplica(docs, 2)
	if err != nil {
		t.Fatal(err)
	}
	return rp, in
}

func TestPerturbedRankingIsCaught(t *testing.T) {
	rp, in := smallReplica(t)
	p, err := in.probe(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rp.batch(p, topK)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Results) < 3 || len(want.Results[0].Leaves) == 0 {
		t.Fatalf("probe ranked too little to perturb: %+v", want)
	}
	var got batchReply
	roundTrip(t, want, &got)
	if d := diffBatch(got, want); d != "" {
		t.Fatalf("an unperturbed reply differs after the JSON round trip: %s", d)
	}
	perturb := map[string]func(b *batchReply){
		"swapped ranks":     func(b *batchReply) { b.Results[1], b.Results[2] = b.Results[2], b.Results[1] },
		"score off by ulp":  func(b *batchReply) { b.Results[0].Score = math.Nextafter(b.Results[0].Score, 2) },
		"other fingerprint": func(b *batchReply) { b.Results[0].Fingerprint = "0" + b.Results[0].Fingerprint[1:] },
		"dropped result":    func(b *batchReply) { b.Results = b.Results[:len(b.Results)-1] },
		"wsim off by ulp":   func(b *batchReply) { b.Results[0].Leaves[0].WSim = math.Nextafter(b.Results[0].Leaves[0].WSim, 2) },
		"other target":      func(b *batchReply) { b.Results[0].Leaves[0].Target += "X" },
		"other strategy":    func(b *batchReply) { b.Strategy = "exact-" + b.Strategy },
		"other budget":      func(b *batchReply) { b.CandidateBudget++ },
	}
	for name, f := range perturb {
		var bad batchReply
		roundTrip(t, want, &bad)
		f(&bad)
		if diffBatch(bad, want) == "" {
			t.Errorf("%s: not caught", name)
		}
	}
}

func TestPerturbedMappingIsCaught(t *testing.T) {
	in := newInputs(7)
	p, err := in.pair(0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMatcher(benchConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := matchPair(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Leaves) < 2 || len(want.NonLeaves) == 0 {
		t.Fatalf("pair mapped too little to perturb")
	}
	var got matchReply
	roundTrip(t, want, &got)
	if d := diffMatch(got, want); d != "" {
		t.Fatalf("an unperturbed mapping differs after the JSON round trip: %s", d)
	}
	if f1 := pairF1(got, p.gold); f1 < 0.5 {
		t.Errorf("pair F1 against the generator's gold = %.3f, implausibly low", f1)
	}
	perturb := map[string]func(r *matchReply){
		"lsim off by ulp":     func(r *matchReply) { r.Leaves[0].LSim = math.Nextafter(r.Leaves[0].LSim, -1) },
		"ssim off by ulp":     func(r *matchReply) { r.NonLeaves[0].SSim = math.Nextafter(r.NonLeaves[0].SSim, 2) },
		"swapped targets":     func(r *matchReply) { r.Leaves[0].Target, r.Leaves[1].Target = r.Leaves[1].Target, r.Leaves[0].Target },
		"dropped non-leaf":    func(r *matchReply) { r.NonLeaves = r.NonLeaves[1:] },
		"extra leaf element ": func(r *matchReply) { r.Leaves = append(r.Leaves, r.Leaves[0]) },
	}
	for name, f := range perturb {
		var bad matchReply
		roundTrip(t, want, &bad)
		f(&bad)
		if diffMatch(bad, want) == "" {
			t.Errorf("%s: not caught", name)
		}
	}
}

func TestServingFlagsFailAnOperation(t *testing.T) {
	ok := reply{status: 200, body: []byte(`{"strategy":"indexed","results":[]}`)}
	if _, why := decodeBatch(ok); why != "" {
		t.Fatalf("a clean reply failed: %s", why)
	}
	for name, r := range map[string]reply{
		"cached":    {status: 200, body: []byte(`{"cached":true}`)},
		"degraded":  {status: 200, body: []byte(`{"degraded":true}`)},
		"429":       {status: 429, body: []byte(`{"error":"server overloaded"}`)},
		"deadline":  {status: 503, body: []byte(`{"error":"match deadline exceeded under load; retry"}`)},
		"undecoded": {status: 200, body: []byte(`{`)},
		"transport": {err: errors.New("connection refused")},
	} {
		if _, why := decodeBatch(r); why == "" {
			t.Errorf("%s reply was not counted as failed", name)
		}
	}
	if _, why := decodeMatch(reply{status: 200, body: []byte(`{"cached":true}`)}); why == "" {
		t.Error("a cached /match reply was not counted as failed")
	}
}

func TestInputsAreFreshAndDeterministic(t *testing.T) {
	a, b := newInputs(3), newInputs(3)
	for j := 0; j < 30; j++ {
		pa, err := a.probe(j)
		if err != nil {
			t.Fatal(err)
		}
		pb, _ := b.probe(j)
		if pa.fp != pb.fp || pa.family != j%10 {
			t.Fatalf("probe %d: not deterministic or wrong family", j)
		}
	}
	if _, err := a.warmProbe(0); err != nil {
		t.Fatalf("a warm-up probe repeats a timed one: %v", err)
	}
	seen := map[int]bool{}
	for j := 0; j < churnCorpus; j++ {
		k := churnTarget(j, churnCorpus)
		if seen[k] {
			t.Fatalf("churn write %d replaces entry %d a second time", j, k)
		}
		seen[k] = true
	}
}

func TestEverySeedMapsToASlot(t *testing.T) {
	for _, arg := range []string{"0", "7", "8999999", "9000000", "123456789", "-5", "18446744073709551615", "abc"} {
		s := seedSlot(arg)
		if s < 0 || s >= seedSlots {
			t.Fatalf("seed %q: slot %d out of [0, %d)", arg, s, seedSlots)
		}
		if seedSlot(arg) != s {
			t.Fatalf("seed %q: slot not deterministic", arg)
		}
		if opt := (options{workload: "probe", seedArg: arg, seconds: 1, cupidd: "x"}); validate(opt, 0) != nil {
			t.Fatalf("seed %q rejected: %v", arg, validate(opt, 0))
		}
	}
	if seedSlot("7") != 7 {
		t.Fatal("a small seed is not its own slot")
	}
	if seedSlot("123456789") == seedSlot("123456790") {
		t.Fatal("neighbouring large seeds share a slot")
	}
}

func TestLoopsHandOutEveryIndexOnce(t *testing.T) {
	c := clock{t0: time.Now()}
	ops, err := closedLoop(c, 2, atLeast(0, 50), func(i int) (func() reply, error) {
		return func() reply { return reply{status: 200} }, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, o := range ops {
		if seen[o.idx] || o.idx >= len(ops) {
			t.Fatalf("index %d handed out twice or out of range", o.idx)
		}
		seen[o.idx] = true
	}
	if len(ops) < 50 {
		t.Fatalf("closed loop stopped after %d of 50 operations", len(ops))
	}
	open, err := openLoop(c, time.Millisecond, 5, func(j int) (func() reply, error) {
		return func() reply { time.Sleep(3 * time.Millisecond); return reply{status: 200} }, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < len(open); j++ {
		// A request whose turn came while the previous one was in flight
		// is late, and its latency counts the wait from its due time.
		if open[j].sched-open[j-1].sched != time.Millisecond || open[j].latency() < open[j].done-open[j].sent {
			t.Fatalf("open-loop request %d: due %v, sent %v, latency %v", j, open[j].sched, open[j].sent, open[j].latency())
		}
	}
}

// TestChurnReadsMatchOnlyCommitStates checks that a churn read passes
// only when its reply equals a registry state between the writes
// acknowledged before it was sent and the writes sent before its reply
// arrived; a replace seen half-applied (the entry absent, or scored
// twice) fails like any other difference.
func TestChurnReadsMatchOnlyCommitStates(t *testing.T) {
	in := newInputs(7)
	docs, err := in.corpus(60)
	if err != nil {
		t.Fatal(err)
	}
	p, err := in.probe(0)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := newReplica(docs, 2)
	if err != nil {
		t.Fatal(err)
	}
	state := make([]batchReply, 3)
	if state[0], err = rp.batch(p, topK); err != nil {
		t.Fatal(err)
	}
	if len(state[0].Results) < 2 {
		t.Fatalf("probe ranked too little: %+v", state[0])
	}
	// Both writes replace entries the probe ranks, so every state differs.
	writes := make([]doc, 2)
	for j := range writes {
		if writes[j], err = in.write(j, state[0].Results[j].Name); err != nil {
			t.Fatal(err)
		}
		if err := rp.register(writes[j]); err != nil {
			t.Fatal(err)
		}
		if state[j+1], err = rp.batch(p, topK); err != nil {
			t.Fatal(err)
		}
	}
	// Write 1 replaced half-applied: its entry in no index shard.
	rp.reg.Remove(writes[1].name)
	absent, err := rp.batch(p, topK)
	if err != nil {
		t.Fatal(err)
	}
	// Write 0 was acknowledged before the read was sent, write 1 was
	// sent before its reply arrived: states 1 and 2 are valid.
	wops := []op{{idx: 0, open: true, sent: ms(1), done: ms(2)}, {idx: 1, open: true, sent: ms(5), done: ms(9)}}
	check := func(got batchReply) (failed int) {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		r := &runner{in: in, clients: 2, rep: newReport()}
		rops := []op{{idx: 0, sent: ms(3), done: ms(8), rep: reply{status: 200, body: b}}}
		if _, _, err := r.checkChurnReads(docs, writes, wops, rops); err != nil {
			t.Fatal(err)
		}
		return r.rep.failed
	}
	for name, got := range map[string]batchReply{"state 1": state[1], "state 2": state[2]} {
		if check(got) != 0 {
			t.Errorf("%s: a valid read failed", name)
		}
	}
	perturb := map[string]func() batchReply{
		"stale state 0":         func() batchReply { return state[0] },
		"replaced entry absent": func() batchReply { return absent },
		"scored +1": func() batchReply {
			b := state[1]
			b.CandidatesScored++
			return b
		},
		"scored +2": func() batchReply {
			b := state[2]
			b.CandidatesScored += 2
			return b
		},
		"duplicate result": func() batchReply {
			b := state[2]
			b.Results = append([]batchResult{b.Results[0]}, b.Results[:len(b.Results)-1]...)
			return b
		},
	}
	for name, f := range perturb {
		if check(f()) != 1 {
			t.Errorf("%s: not caught", name)
		}
	}
}
