// Command perfbench is the repository benchmark: it launches a cupidd
// binary, drives it end to end over HTTP on one of four workloads
// (probe, pair, cluster, churn), checks every timed reply against an
// in-process replica, and prints the end-to-end metrics. With --trace 1
// it instead performs the same operations in-process through the public
// functions cupidd calls, with spans around each layer, and prints the
// per-layer split. README.md in this directory is the guide.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash perfbench/run.sh --workload probe --seed 1 --seconds 5 --trace 0
//	bash perfbench/run.sh compare A.json B.json
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload string
	seedArg  string // --seed as given
	seed     int64  // input seed slot derived from seedArg, in [0, seedSlots)
	seconds  int
	trace    bool
	cupidd   string // cupidd binary
	work     string // scratch root for data directories, logs and results
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: probe, pair, cluster or churn")
	fs.StringVar(&o.seedArg, "seed", "1", "input seed (any integer; the same seed gives the same inputs)")
	fs.IntVar(&o.seconds, "seconds", 15, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced in-process run (per-layer metrics)")
	fs.StringVar(&o.cupidd, "cupidd", "", "cupidd binary")
	fs.StringVar(&o.work, "work", ".bench_build", "scratch directory")
	fs.Parse(os.Args[1:])
	o.trace = trace == 1
	o.seed = seedSlot(o.seedArg)
	if err := validate(o, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// An interrupted run stops the cupidd processes it started; the
	// runner's deferred clean-up does not run on a signal.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		stopAll()
		fmt.Fprintln(os.Stderr, "perfbench: interrupted by", s)
		os.Exit(1)
	}()
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func validate(o options, trace int) error {
	switch {
	case workloadRunners[o.workload].run == nil:
		return fmt.Errorf("unknown --workload %q (want probe, pair, cluster or churn)", o.workload)
	case o.seedArg == "":
		return fmt.Errorf("--seed is empty")
	case o.seconds < 1:
		return fmt.Errorf("--seconds must be positive")
	case trace != 0 && trace != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	case o.cupidd == "":
		return fmt.Errorf("--cupidd is required (run through run.sh)")
	}
	return nil
}

// seedSlots bounds the input seed slot: inputs offset each seed space by
// slot*seedStride, which must stay within int64.
const seedSlots = 9_000_000

// seedSlot maps a --seed argument to an input seed slot. Seeds below
// seedSlots are their own slot; any other argument (large, negative or not
// a number) is hashed into the range, so every seed is accepted and the
// same seed always gives the same inputs.
func seedSlot(arg string) int64 {
	if n, err := strconv.ParseInt(arg, 10, 64); err == nil && n >= 0 && n < seedSlots {
		return n
	}
	h := fnv.New64a()
	h.Write([]byte(arg))
	return int64(h.Sum64() % seedSlots)
}

// workloadRunners maps each workload to its untraced and traced runs.
var workloadRunners = map[string]struct{ run, trace func(*runner) error }{
	"probe":   {(*runner).probe, (*runner).traceProbe},
	"pair":    {(*runner).pair, (*runner).tracePair},
	"cluster": {(*runner).cluster, (*runner).traceCluster},
	"churn":   {(*runner).churn, (*runner).traceChurn},
}

func run(o options) (*report, error) {
	dir, err := filepath.Abs(filepath.Join(o.work, "runs", fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	clients := runtime.NumCPU()
	if clients > 2 {
		clients = 2
	}
	r := &runner{
		opt:     o,
		in:      newInputs(o.seed),
		dir:     dir,
		clients: clients,
		clk:     clock{t0: time.Now()},
		rep:     newReport(),
	}
	fn := workloadRunners[o.workload].run
	if o.trace {
		fn = workloadRunners[o.workload].trace
	}
	if err := fn(r); err != nil {
		return nil, err
	}
	r.rep.meta = r.meta()
	return r.rep, nil
}

// runner carries one benchmark run's state.
type runner struct {
	opt     options
	in      *inputs
	dir     string // per-run scratch directory, removed at exit
	clients int    // closed-loop client count: min(2, nproc)
	clk     clock
	rep     *report
	flags   []string // cupidd flags of the last launch
}

func (r *runner) seconds() time.Duration { return time.Duration(r.opt.seconds) * time.Second }

// meta is the run metadata every result records. Results from hosts
// with different core counts are not comparable (compare refuses them).
func (r *runner) meta() map[string]any {
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"workload":     r.opt.workload,
		"seed":         r.opt.seedArg,
		"seed_slot":    r.opt.seed,
		"seconds":      r.opt.seconds,
		"trace":        r.opt.trace,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"git_commit":   commit,
		"cupidd_flags": strings.Join(r.flags, " ") + " (all other flags at their defaults)",
		"clients":      r.clients,
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, failures and human-readable lines.
type report struct {
	order     []string
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string // failure reasons, and correctness problems not tied to one operation
	wrong     bool     // a correctness check outside the operation count failed
	lines     []string
	meta      map[string]any
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) add(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// line records a human-readable result line (per-workload metric names, sample
// counts, lateness) printed before the final JSON.
func (r *report) line(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// opFailed counts one failed timed operation.
func (r *report) opFailed(what string, idx int, why string) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf("%s %d: %s", what, idx, why))
}

// incorrect records a correctness problem not tied to one operation.
func (r *report) incorrect(format string, args ...any) {
	r.wrong = true
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) print(o options) error {
	for i, p := range r.problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "... %d more problems\n", len(r.problems)-20)
			break
		}
		fmt.Fprintln(os.Stderr, "problem:", p)
	}
	for _, l := range r.lines {
		fmt.Println(l)
	}
	for _, name := range r.order {
		m := r.metrics[name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number", name)
		}
		fmt.Printf("metric %-40s %14.4f %s\n", name, m.Value, m.Unit)
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{!r.wrong && r.failed == 0, r.attempted, r.failed, r.metrics}
	saved := map[string]any{"meta": r.meta, "result": out}
	b, err := json.Marshal(saved)
	if err != nil {
		return err
	}
	fmt.Printf("meta %s\n", mustJSON(r.meta))
	resDir := filepath.Join(o.work, "results")
	if err := os.MkdirAll(resDir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v-%d.json", o.workload, o.seed, o.trace, time.Now().Unix())
	if err := os.WriteFile(filepath.Join(resDir, name), append(b, '\n'), 0o644); err != nil {
		return err
	}
	final, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(final))
	return nil
}
