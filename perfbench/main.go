// Command perfbench is the repository's benchmark: it runs a mining pool
// through verified epochs on one named workload and prints, as the last
// line of its output, one JSON object with the run's correctness, its
// attempted and failed submissions, and its metrics. See README.md for the
// workloads, the metrics and how they relate.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload pool-default --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line. Attempted counts the
// submissions of the epochs every run of the seed makes and Failed those
// with a wrong verdict (an honest worker rejected, an adversary accepted, a
// worker absent) plus every violated correctness check; only the latter
// make the run incorrect.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	violations int
}

func (r *result) set(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// fail records a violated correctness check: a failed operation that makes
// the run incorrect.
func (r *result) fail(log io.Writer, format string, args ...any) {
	r.Failed++
	r.violations++
	fmt.Fprintf(log, "perfbench: INCORRECT: "+format+"\n", args...)
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		name    = fl.String("workload", "", "workload name: pool-default | tcp-honest | pool-journal")
		seed    = fl.Int64("seed", 1, "workload seed; every input is generated from it")
		seconds = fl.Int("seconds", 25, "measured duration in seconds")
		trace   = fl.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		workdir = fl.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for journals and checkpoint stores")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need -workload (pool-default | tcp-honest | pool-journal), -seconds ≥ 1 and -trace 0|1")
		return 2
	}
	// Schedule like the 2-CPU host the bounds were set on, even on a larger
	// machine.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, w.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, dir: dir, log: stderr}
	var res result
	if *trace == 1 {
		err = runTraced(cfg, &res)
	} else {
		err = runMeasured(cfg, &res)
	}
	if err != nil {
		res.fail(stderr, "%v", err)
	}
	res.Correct = res.violations == 0
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runConfig is one invocation's settings.
type runConfig struct {
	w       workload
	seed    int64
	seconds int
	dir     string
	log     io.Writer
}

// subdir names a fresh directory under the run's scratch directory.
func (c runConfig) subdir(name string) string { return filepath.Join(c.dir, name) }

var errTooSlow = errors.New("too slow to reach the minimum epoch count")
