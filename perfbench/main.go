// Command perfbench is the repository's benchmark: closed-loop workloads
// over the public entry points (omtree.Build, omtree.Build3D and the
// Overlay session calls), with output checks, end-to-end metrics from an
// untraced run and per-layer metrics from a traced one. See README.md.
//
//	perfbench --workload disk_table1 --seed 1 --seconds 30 --trace 0 [--out result.json]
//	perfbench compare --base 'old/*.json' [--cand 'new/*.json']
//
// A run prints a human-readable report and, as its last line, one JSON
// object with the keys correct, attempted, failed and metrics. It exits 1
// when an output check fails and 2 on a usage or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	var out string
	fs.StringVar(&cfg.Workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&cfg.Seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&cfg.Seconds, "seconds", 30, "length of the timed closed loop")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&out, "out", "", "write the full result (fingerprint, samples, self times) as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.Trace = trace == 1
	if err := cfg.fillDefaults(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if cfg.Seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}

	r, err := execute(cfg, newWorkload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	res := summarize(r)
	if cfg.Trace {
		spans := filepath.Join(".bench_build", "spans", cfg.Workload+".jsonl")
		if err := writeFile(spans, func(f *os.File) error { return r.rec.writeSpans(f) }); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
			return 2
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = writeFile(out, func(f *os.File) error { _, err := f.Write(append(data, '\n')); return err })
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: result:", err)
			return 2
		}
	}
	writeReport(os.Stdout, res)
	last, err := json.Marshal(finalLine(res))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(last))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeFile creates path (and its directory) and fills it with write.
func writeFile(path string, write func(*os.File) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	var base, cand string
	fs.StringVar(&base, "base", "", "glob of the base (parent) result files")
	fs.StringVar(&cand, "cand", "", "glob of the candidate result files; omit to report the base spreads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if base == "" {
		fmt.Fprintln(os.Stderr, "perfbench compare: --base is required")
		return 2
	}
	bs, err := loadResults(base)
	var cs []*result
	if err == nil && cand != "" {
		cs, err = loadResults(cand)
	}
	var vs []verdict
	if err == nil {
		vs, err = compareSets(bs, cs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare: refused:", err)
		return 2
	}
	writeVerdicts(os.Stdout, vs)
	for _, v := range vs {
		if v.Flag == "regressed" || v.OverBound {
			return 1
		}
	}
	if len(cs) == 0 {
		for _, v := range vs {
			if v.Metric != "setup_s" && v.BaseSpread > v.Bound {
				return 1
			}
		}
	}
	return 0
}
