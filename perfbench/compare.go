package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// savedResult is one run as written under <work>/results.
type savedResult struct {
	Meta   map[string]any `json:"meta"`
	Result struct {
		Correct bool              `json:"correct"`
		Metrics map[string]metric `json:"metrics"`
	} `json:"result"`
}

// compareMain prints the per-metric change from one saved result to
// another. Results from hosts with different core counts, or of
// different workloads or modes, are reported as not comparable and
// never diffed: a speed-up measured on one core says nothing about two.
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare OLD.json NEW.json")
	}
	var runs [2]savedResult
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &runs[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for _, key := range []string{"nproc", "gomaxprocs", "workload", "trace"} {
		if a, b := fmt.Sprint(runs[0].Meta[key]), fmt.Sprint(runs[1].Meta[key]); a != b {
			fmt.Printf("not comparable: %s is %s in %s and %s in %s\n", key, a, args[0], b, args[1])
			return nil
		}
	}
	names := make([]string, 0, len(runs[1].Result.Metrics))
	for name := range runs[1].Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		nw := runs[1].Result.Metrics[name]
		old, ok := runs[0].Result.Metrics[name]
		if !ok {
			fmt.Printf("%-40s %14s -> %14.4f %s (new metric)\n", name, "", nw.Value, nw.Unit)
			continue
		}
		change := "n/a"
		if old.Value != 0 {
			change = fmt.Sprintf("%+.2f%%", 100*(nw.Value-old.Value)/old.Value)
		}
		fmt.Printf("%-40s %14.4f -> %14.4f %s (%s)\n", name, old.Value, nw.Value, nw.Unit, change)
	}
	return nil
}
