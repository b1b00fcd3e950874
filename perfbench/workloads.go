package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	cupid "repro"
	"repro/internal/corpus"
)

// Workload sizes. They keep an untraced run of each workload within about 50 s on
// a 2-core host whose speed varied about 2x, so a campaign of tens of
// runs fits in under an hour, while leaving at least 100 timed samples,
// so p90 has at least 10 samples beyond it. For that reason the probe
// corpus is 5,000 schemas rather than the roadmap's 10,000, and a pair
// has ~420 nodes rather than ~500.
//
// The churn writer's rate: on a 2-core x86-64 host a replace took
// 1.6 ms at p50 with no other request in flight (the traced churn run
// prints this service time), and a 2k-corpus probe about 60 ms. One
// write per 25 ms keeps the writer busy about 6% of the time and sends
// about 2.5 writes per reader probe, so most reads overlap a write while
// the reader still holds most of the CPU.
const (
	probeCorpus   = 5_000
	clusterCorpus = 4_000
	churnCorpus   = 2_000
	topK          = 10
	minTimed      = 100
	clusterJobs   = 3
	warmProbes    = 10 // one per family
	warmPairs     = 3
	churnPeriod   = 25 * time.Millisecond // open-loop write rate: 40/s (see above)
	pollEvery     = 10 * time.Millisecond
)

// setupRuns is how many times each workload sets up from scratch; the
// reported setup_s is the median.
var setupRuns = map[string]int{"probe": 2, "pair": 3, "cluster": 2, "churn": 3}

// setUp launches cupidd on a fresh data directory, registers the corpus
// over the client connections and runs the untimed warm-up, setupRuns
// times; all but the last daemon are stopped. setup_s is the median of
// launch-to-warm times.
func (r *runner) setUp(corpus []doc, warm func(*conns) error) (*daemon, string, error) {
	var times []float64
	for k := 0; ; k++ {
		dataDir := filepath.Join(r.dir, fmt.Sprintf("data%d", k))
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, "", err
		}
		start := time.Now()
		d, _, err := launch(r.opt.cupidd, dataDir, filepath.Join(r.dir, "cupidd.log"))
		if err != nil {
			return nil, "", err
		}
		r.flags = d.args
		c := newConns(d.base, r.clients)
		err = registerCorpus(c, corpus, r.clients)
		if err == nil {
			err = warm(c)
		}
		if err == nil {
			// Set-up ends when the server is ready again: registration
			// leaves journal compaction running, which /readyz reports.
			_, err = d.waitReady(2 * time.Minute)
		}
		c.close()
		if err != nil {
			d.stop()
			return nil, "", err
		}
		times = append(times, time.Since(start).Seconds())
		if k == setupRuns[r.opt.workload]-1 {
			r.rep.add("setup_s", median(times), "s")
			r.rep.line("setup_s runs %v", roundAll(times, 3))
			return d, dataDir, nil
		}
		if err := d.stop(); err != nil {
			return nil, "", err
		}
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, "", err
		}
	}
}

// registerCorpus registers every document over n connections, each
// registration answered 201 with the generator's fingerprint.
func registerCorpus(c *conns, corpus []doc, n int) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(corpus); i += n {
				if err := checkRegistered(c.do("POST", "/schemas", registerBody(corpus[i])), corpus[i], 201); err != "" {
					errs[w] = fmt.Errorf("registering %s: %s", corpus[i].name, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkRegistered verifies a registration reply: the expected status and
// the fingerprint the generator computed for the same bytes.
func checkRegistered(rep reply, d doc, status int) string {
	if !rep.ok() {
		return rep.describe()
	}
	if rep.status != status {
		return fmt.Sprintf("status %d, want %d", rep.status, status)
	}
	var info schemaInfo
	if err := json.Unmarshal(rep.body, &info); err != nil {
		return "undecodable reply: " + err.Error()
	}
	if info.Name != d.name || info.Fingerprint != d.fp {
		return fmt.Sprintf("registered %s %s, want %s %s", info.Name, info.Fingerprint, d.name, d.fp)
	}
	return ""
}

// warmUpProbes sends the untimed warm-up probes (their own seed space), so
// timed probes meet a warm process-lifetime token cache.
func (r *runner) warmUpProbes(c *conns) error {
	for j := 0; j < warmProbes; j++ {
		p, err := r.in.warmProbe(j)
		if err != nil {
			return err
		}
		if _, why := decodeBatch(c.do("POST", "/match/batch", batchBody(p, topK))); why != "" {
			return fmt.Errorf("warm-up probe %d: %s", j, why)
		}
	}
	return nil
}

// sentProbe returns timed probe i, which the load generator has already
// generated (inputs memoizes it), so the replica sees the same bytes.
func (r *runner) sentProbe(i int) doc {
	p, err := r.in.probe(i)
	if err != nil {
		panic(fmt.Sprintf("probe %d was sent but cannot be regenerated: %v", i, err))
	}
	return p
}

// probeLoop runs closed-loop /match/batch clients with fresh probes
// while more allows.
func (r *runner) probeLoop(c *conns, clients int, more func(time.Duration, int) bool) ([]op, error) {
	return closedLoop(r.clk, clients, more, func(i int) (func() reply, error) {
		p, err := r.in.probe(i)
		if err != nil {
			return nil, err
		}
		body := batchBody(p, topK)
		return func() reply { return c.do("POST", "/match/batch", body) }, nil
	})
}

// checkProbes verifies every timed probe reply against the replica and
// returns in-family and returned result counts.
func (r *runner) checkProbes(what string, ops []op, want func(i int, got batchReply) (batchReply, error), strategy string) (inFam, returned int, err error) {
	for _, o := range ops {
		r.rep.attempted++
		got, why := decodeBatch(o.rep)
		if why != "" {
			r.rep.opFailed(what, o.idx, why)
			continue
		}
		if strategy != "" && got.Strategy != strategy {
			r.rep.opFailed(what, o.idx, fmt.Sprintf("strategy %q, want %q", got.Strategy, strategy))
			continue
		}
		w, err := want(o.idx, got)
		if err != nil {
			return 0, 0, err
		}
		if d := diffBatch(got, w); d != "" {
			r.rep.opFailed(what, o.idx, d)
			continue
		}
		inFam += inFamily(got, r.sentProbe(o.idx).family)
		returned += len(got.Results)
	}
	return inFam, returned, nil
}

// latencyMetrics adds the end-to-end latency metrics of the timed
// operations, and prints them under the workload's own metric names.
func (r *runner) latencyMetrics(ops []op, opName string) {
	ms := latenciesMs(ops)
	p50, p90 := percentile(ms, 50), percentile(ms, 90)
	r.rep.add("latency_p50_ms", p50, "ms")
	r.rep.add("latency_p90_ms", p90, "ms")
	r.rep.line("%s_p50_ms %.3f ms (n=%d)", opName, p50, len(ms))
	r.rep.line("%s_p90_ms %.3f ms (n=%d, %d beyond)", opName, p90, len(ms), len(ms)-nearestRank(90, len(ms)))
	if hp := highestPercentile(len(ms)); hp > 90 {
		r.rep.line("%s_p%g_ms %.3f ms (highest percentile with >= 10 samples beyond)", opName, hp, percentile(ms, hp))
	} else if hp == 0 {
		r.rep.line("warning: %d samples leave fewer than 10 beyond p90", len(ms))
	}
}

// throughput is completed closed-loop operations per second of the loop.
func throughput(ops []op) float64 {
	if len(ops) == 0 {
		return 0
	}
	first, last := ops[0].sent, ops[0].done
	for _, o := range ops {
		if o.sent < first {
			first = o.sent
		}
		if o.done > last {
			last = o.done
		}
	}
	return float64(len(ops)) / (last - first).Seconds()
}

func (r *runner) rss(d *daemon) error {
	mb, err := d.peakRSSMiB()
	if err != nil {
		return err
	}
	r.rep.add("peak_rss_mb", mb, "MiB")
	return nil
}

// restartRuns is how many times every workload restarts cupidd on its
// data directory at the end; job_s is the median time to ready.
const restartRuns = 5

// restart stops d and relaunches cupidd on the same data directory,
// restartRuns times, returning the median time from launch to /readyz
// 200 and the number of schemas the first restarted server lists.
func (r *runner) restart(d *daemon, dataDir string) (float64, int, error) {
	if err := d.stop(); err != nil {
		return 0, 0, err
	}
	var times []float64
	listed := -1
	for k := 0; k < restartRuns; k++ {
		d2, ready, err := launch(r.opt.cupidd, dataDir, filepath.Join(r.dir, "cupidd.log"))
		if err != nil {
			return 0, 0, err
		}
		times = append(times, ready.Seconds())
		if listed < 0 {
			c := newConns(d2.base, 1)
			rep := c.do("GET", "/schemas", nil)
			c.close()
			var list struct {
				Schemas []schemaInfo `json:"schemas"`
			}
			if !rep.ok() {
				err = fmt.Errorf("listing schemas after restart: %s", rep.describe())
			} else if err = json.Unmarshal(rep.body, &list); err != nil {
				err = fmt.Errorf("decoding schema list: %w", err)
			}
			listed = len(list.Schemas)
		}
		if stopErr := d2.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return median(times), listed, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func roundAll(xs []float64, digits int) []float64 {
	p := math.Pow(10, float64(digits))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*p) / p
	}
	return out
}

// probe: a 5k-schema corpus ranked by fresh inline probes from two
// closed-loop clients, then a restart on the same data directory.
func (r *runner) probe() error {
	corpus, err := r.in.corpus(probeCorpus)
	if err != nil {
		return err
	}
	d, dataDir, err := r.setUp(corpus, r.warmUpProbes)
	if err != nil {
		return err
	}
	c := newConns(d.base, r.clients)
	ops, err := r.probeLoop(c, r.clients, atLeast(r.seconds(), minTimed))
	c.close()
	if err != nil {
		d.stop()
		return err
	}
	if err := r.rss(d); err != nil {
		d.stop()
		return err
	}
	ready, listed, err := r.restart(d, dataDir)
	if err != nil {
		return err
	}
	if listed != len(corpus) {
		r.rep.incorrect("restart recovered %d schemas, want %d", listed, len(corpus))
	}
	rp, err := newReplica(corpus, r.clients)
	if err != nil {
		return err
	}
	inFam, returned, err := r.checkProbes("probe", ops, func(i int, _ batchReply) (batchReply, error) {
		return rp.batch(r.sentProbe(i), topK)
	}, "")
	if err != nil {
		return err
	}
	r.latencyMetrics(ops, "probe")
	r.rep.add("ops_per_s", throughput(ops), "1/s")
	r.rep.add("job_s", ready, "s")
	r.rep.line("probe_per_s %.3f 1/s", throughput(ops))
	r.rep.line("recover_s %.4f s (%d schemas)", ready, listed)
	r.qualityPrecision(inFam, returned)
	return nil
}

func (r *runner) qualityPrecision(inFam, returned int) {
	p := ratio(inFam, returned)
	r.rep.add("quality", p, "ratio")
	r.rep.line("precision_at_10 %.4f ratio (%d of %d returned results in-family)", p, inFam, returned)
	r.rep.line("failed_ratio %.4f ratio (%d of %d)", ratio(r.rep.failed, r.rep.attempted), r.rep.failed, r.rep.attempted)
}

// pair: one closed-loop client matching two fresh inline ~500-node
// schemas per request; no corpus.
func (r *runner) pair() error {
	warm := func(c *conns) error {
		for j := 1; j <= warmPairs; j++ {
			p, err := r.in.pair(-j)
			if err != nil {
				return err
			}
			if _, why := decodeMatch(c.do("POST", "/match", matchBody(p))); why != "" {
				return fmt.Errorf("warm-up pair %d: %s", j, why)
			}
		}
		return nil
	}
	d, dataDir, err := r.setUp(nil, warm)
	if err != nil {
		return err
	}
	c := newConns(d.base, 1)
	ops, err := closedLoop(r.clk, 1, atLeast(r.seconds(), minTimed), func(i int) (func() reply, error) {
		p, err := r.in.pair(i)
		if err != nil {
			return nil, err
		}
		body := matchBody(p)
		return func() reply { return c.do("POST", "/match", body) }, nil
	})
	c.close()
	if err != nil {
		d.stop()
		return err
	}
	if err := r.rss(d); err != nil {
		d.stop()
		return err
	}
	m, err := cupid.NewMatcher(benchConfig())
	if err != nil {
		return err
	}
	cold, ready, err := r.coldMatches(d, dataDir, m)
	if err != nil {
		return err
	}
	var f1s []float64
	for _, o := range ops {
		r.rep.attempted++
		got, why := decodeMatch(o.rep)
		if why != "" {
			r.rep.opFailed("pair", o.idx, why)
			continue
		}
		p, err := r.in.pair(o.idx) // memoized: the bytes that were sent
		if err != nil {
			return err
		}
		want, err := matchPair(m, p)
		if err != nil {
			return err
		}
		if d := diffMatch(got, want); d != "" {
			r.rep.opFailed("pair", o.idx, d)
			continue
		}
		if o.idx < minTimed {
			f1s = append(f1s, pairF1(got, p.gold))
		}
	}
	f1 := 0.0
	for _, v := range f1s {
		f1 += v
	}
	f1 /= float64(len(f1s))
	r.latencyMetrics(ops, "pair")
	r.rep.add("ops_per_s", throughput(ops), "1/s")
	r.rep.add("job_s", cold, "s")
	r.rep.add("quality", f1, "ratio")
	r.rep.line("pair_per_s %.3f 1/s", throughput(ops))
	r.rep.line("cold_match_s %.4f s (launch on the empty data directory to the first /match reply, median of %d)", cold, restartRuns)
	r.rep.line("startup_s %.4f s (launch on the empty data directory to /readyz 200, median of %d)", ready, restartRuns)
	r.rep.line("pair_f1 %.4f ratio (mean over pairs 0..%d)", f1, len(f1s)-1)
	r.rep.line("failed_ratio %.4f ratio (%d of %d)", ratio(r.rep.failed, r.rep.attempted), r.rep.failed, r.rep.attempted)
	return nil
}

// coldMatches stops d, then restartRuns times launches cupidd on the
// same (empty) data directory and sends one fresh pair: a process with
// a cold token cache. It returns the medians of launch to the /match
// reply and of launch to ready. Each reply is checked like a timed one.
func (r *runner) coldMatches(d *daemon, dataDir string, m *cupid.Matcher) (cold, ready float64, err error) {
	if err := d.stop(); err != nil {
		return 0, 0, err
	}
	var colds, readies []float64
	for k := 0; k < restartRuns; k++ {
		idx := -warmPairs - 1 - k
		p, err := r.in.pair(idx)
		if err != nil {
			return 0, 0, err
		}
		body := matchBody(p)
		d2, up, err := launch(r.opt.cupidd, dataDir, filepath.Join(r.dir, "cupidd.log"))
		if err != nil {
			return 0, 0, err
		}
		c := newConns(d2.base, 1)
		rep := c.do("POST", "/match", body)
		took := time.Since(d2.started)
		c.close()
		if err := d2.stop(); err != nil {
			return 0, 0, err
		}
		colds, readies = append(colds, took.Seconds()), append(readies, up.Seconds())
		r.rep.attempted++
		got, why := decodeMatch(rep)
		if why == "" {
			want, err := matchPair(m, p)
			if err != nil {
				return 0, 0, err
			}
			why = diffMatch(got, want)
		}
		if why != "" {
			r.rep.opFailed("cold pair", idx, why)
		}
	}
	return median(colds), median(readies), nil
}

// clusterJob runs one POST /corpus/cluster job to completion and returns
// its duration and the families bytes served afterwards.
func (r *runner) clusterJob(c *conns) (time.Duration, []byte, error) {
	start := time.Now()
	rep := c.do("POST", "/corpus/cluster", []byte("{}"))
	if !rep.ok() || rep.status != 202 {
		return 0, nil, fmt.Errorf("starting clustering: %s", rep.describe())
	}
	var job struct {
		ID     int    `json:"id"`
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(rep.body, &job); err != nil {
		return 0, nil, err
	}
	for job.Status == "running" {
		time.Sleep(pollEvery)
		rep = c.do("GET", "/corpus/cluster/"+strconv.Itoa(job.ID), nil)
		if !rep.ok() {
			return 0, nil, fmt.Errorf("polling clustering job: %s", rep.describe())
		}
		if err := json.Unmarshal(rep.body, &job); err != nil {
			return 0, nil, err
		}
	}
	took := time.Since(start)
	if job.Status != "done" {
		return 0, nil, fmt.Errorf("clustering job %d: %s %s", job.ID, job.Status, job.Error)
	}
	fam := c.do("GET", "/corpus/families", nil)
	if !fam.ok() {
		return 0, nil, fmt.Errorf("fetching families: %s", fam.describe())
	}
	return took, fam.body, nil
}

// cluster: a 4k corpus clustered into families three times (the
// families bytes must not change), then family-routed probes.
func (r *runner) cluster() error {
	schemas, err := r.in.corpus(clusterCorpus)
	if err != nil {
		return err
	}
	d, _, err := r.setUp(schemas, r.warmUpProbes)
	if err != nil {
		return err
	}
	from := r.clk.now()
	c := newConns(d.base, r.clients)
	var jobTimes []float64
	var families [][]byte
	for k := 0; k < clusterJobs; k++ {
		took, fam, err := r.clusterJob(c)
		if err != nil {
			c.close()
			d.stop()
			return err
		}
		jobTimes = append(jobTimes, took.Seconds())
		families = append(families, fam)
	}
	left := r.seconds() - (r.clk.now() - from)
	ops, err := r.probeLoop(c, r.clients, atLeast(left, minTimed))
	c.close()
	if err != nil {
		d.stop()
		return err
	}
	if err := r.rss(d); err != nil {
		d.stop()
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}

	rp, err := newReplica(schemas, r.clients)
	if err != nil {
		return err
	}
	res, err := rp.reg.ClusterFamilies(corpus.Options{})
	if err != nil {
		return err
	}
	want, err := res.Encode()
	if err != nil {
		return err
	}
	// Every job must serve the bytes of the replica's clustering of the
	// same corpus, so also the bytes of every other job.
	for k, fam := range families {
		r.rep.attempted++
		if !bytes.Equal(fam, want) {
			r.rep.opFailed("cluster job", k, "families bytes differ from the replica's clustering of the same corpus")
		}
	}
	// Probes are checked under the clustering the server had installed.
	if err := rp.reg.SetFamiliesJSON(families[len(families)-1]); err != nil {
		return err
	}
	inFam, returned, err := r.checkProbes("family probe", ops, func(i int, _ batchReply) (batchReply, error) {
		return rp.batch(r.sentProbe(i), topK)
	}, "family")
	if err != nil {
		return err
	}
	r.latencyMetrics(ops, "probe")
	r.rep.add("ops_per_s", throughput(ops), "1/s")
	r.rep.add("job_s", median(jobTimes), "s")
	r.rep.line("probe_per_s %.3f 1/s (family route)", throughput(ops))
	r.rep.line("cluster_s %.4f s (median of %v, %d families)", median(jobTimes), roundAll(jobTimes, 3), len(res.Families))
	r.qualityPrecision(inFam, returned)
	return nil
}

// churn: a 2k corpus under an open-loop writer replacing entries at a
// fixed rate beside one closed-loop probe reader.
func (r *runner) churn() error {
	corpus, err := r.in.corpus(churnCorpus)
	if err != nil {
		return err
	}
	d, dataDir, err := r.setUp(corpus, r.warmUpProbes)
	if err != nil {
		return err
	}
	nWrites := int(r.seconds() / churnPeriod)
	if nWrites < minTimed {
		nWrites = minTimed
	}
	writes := make([]doc, nWrites)
	for j := range writes {
		if writes[j], err = r.in.write(j, corpus[churnTarget(j, len(corpus))].name); err != nil {
			d.stop()
			return err
		}
	}
	wc, rc := newConns(d.base, 1), newConns(d.base, 1)
	var (
		wops     []op
		werr     error
		writerOn = make(chan struct{})
		done     sync.WaitGroup
	)
	done.Add(1)
	go func() {
		defer done.Done()
		defer close(writerOn)
		wops, werr = openLoop(r.clk, churnPeriod, nWrites, func(j int) (func() reply, error) {
			body := registerBody(writes[j])
			return func() reply { return wc.do("POST", "/schemas", body) }, nil
		})
	}()
	stopped := func() bool {
		select {
		case <-writerOn:
			return true
		default:
			return false
		}
	}
	rops, rerr := r.probeLoop(rc, 1, func(time.Duration, int) bool { return !stopped() })
	done.Wait()
	wc.close()
	rc.close()
	if werr != nil || rerr != nil {
		d.stop()
		return fmt.Errorf("churn: writer: %v, reader: %v", werr, rerr)
	}
	if err := r.rss(d); err != nil {
		d.stop()
		return err
	}
	ready, listed, err := r.restart(d, dataDir)
	if err != nil {
		return err
	}
	if listed != len(corpus) {
		r.rep.incorrect("restart recovered %d schemas, want %d", listed, len(corpus))
	}

	for _, o := range wops {
		r.rep.attempted++
		if why := checkRegistered(o.rep, writes[o.idx], 201); why != "" {
			r.rep.opFailed("write", o.idx, why)
		}
	}
	inFam, returned, err := r.checkChurnReads(corpus, writes, wops, rops)
	if err != nil {
		return err
	}
	late := make([]float64, len(wops))
	for i, o := range wops {
		late[i] = millis(o.sent - o.sched)
	}
	r.latencyMetrics(wops, "write")
	r.rep.add("ops_per_s", throughput(rops), "1/s")
	r.rep.add("job_s", ready, "s")
	r.rep.line("writer lateness p50 %.3f ms, max %.3f ms (open loop, one write per %v)", percentile(late, 50), percentile(late, 100), churnPeriod)
	rms := latenciesMs(rops)
	r.rep.line("probe_p50_ms %.3f ms, probe_p90_ms %.3f ms (reader, n=%d)", percentile(rms, 50), percentile(rms, 90), len(rms))
	r.rep.line("probe_per_s %.3f 1/s (reader)", throughput(rops))
	r.rep.line("recover_s %.4f s (%d schemas after %d replaces)", ready, listed, len(wops))
	r.qualityPrecision(inFam, returned)
	return nil
}

// churnTarget picks the corpus entry write j replaces: a stride coprime
// to the corpus size visits every entry before repeating one.
func churnTarget(j, n int) int { return (j * 7919) % n }

// checkChurnReads verifies the reader's replies. A read overlapping a
// write may see the registry before or after it, so each read is
// checked against the replica at every commit-boundary state it could
// have seen: from all writes acknowledged before it was sent, up to all
// writes sent before its reply arrived. Writes go over one connection,
// so they commit in order. A reply that matches none of these states
// fails the read.
func (r *runner) checkChurnReads(corpus, writes []doc, wops, rops []op) (inFam, returned int, err error) {
	rp, err := newReplica(corpus, r.clients)
	if err != nil {
		return 0, 0, err
	}
	current := map[string]doc{}
	for _, d := range corpus {
		current[d.name] = d
	}
	set := func(d doc) error {
		current[d.name] = d
		return rp.register(d)
	}
	type window struct {
		o      op
		lo, hi int
	}
	var reads []window
	for _, o := range rops {
		w := window{o: o}
		for _, wo := range wops {
			if wo.done < o.sent {
				w.lo++
			}
			if wo.sent < o.done {
				w.hi++
			}
		}
		reads = append(reads, w)
	}
	sort.SliceStable(reads, func(i, j int) bool { return reads[i].lo < reads[j].lo })
	applied := 0
	var stateErr error
	want := func(w window) func(int, batchReply) (batchReply, error) {
		return func(i int, got batchReply) (batchReply, error) {
			for ; applied < w.lo; applied++ {
				if err := set(writes[applied]); err != nil {
					return batchReply{}, err
				}
			}
			best, err := rp.batch(r.sentProbe(i), topK)
			if err != nil || diffBatch(got, best) == "" {
				return best, err
			}
			// Try the later states in commit order, then restore state lo.
			var undo []doc
			defer func() {
				for k := len(undo) - 1; k >= 0; k-- {
					if err := set(undo[k]); err != nil && stateErr == nil {
						stateErr = err
					}
				}
			}()
			for k := w.lo; k < w.hi && k < len(writes); k++ {
				undo = append(undo, current[writes[k].name])
				if err := set(writes[k]); err != nil {
					return batchReply{}, err
				}
				alt, err := rp.batch(r.sentProbe(i), topK)
				if err != nil {
					return batchReply{}, err
				}
				if diffBatch(got, alt) == "" {
					return alt, nil
				}
			}
			return best, nil
		}
	}
	for _, w := range reads {
		a, b, err := r.checkProbes(fmt.Sprintf("read (registry states %d..%d)", w.lo, w.hi), []op{w.o}, want(w), "")
		if err != nil {
			return 0, 0, err
		}
		if stateErr != nil {
			return 0, 0, stateErr
		}
		inFam += a
		returned += b
	}
	return inFam, returned, nil
}
