// Command perfbench is Pogo's end-to-end benchmark. It runs one workload of
// the testbed for a fixed time, checks the workload's outputs with
// computations of its own, and prints one JSON line with the operations it
// attempted and every metric BENCHMARK.json declares, each with its unit:
// the end-to-end metrics on an untraced run (--trace 0), the per-layer
// metrics on a traced run (--trace 1).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh steady --traced
//
// The per-layer metrics are measured from outside the program: the
// benchmark times its own calls into the modules' public functions, wraps
// the transport.Messenger it hands to endpoints, reads runtime/metrics,
// getrusage and /proc/self/io, and folds a CPU profile of its own process
// by internal module. See README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string // scratch directory inside the checkout, removed afterwards
}

// outcome is what a workload reports: operations attempted and failed,
// metrics by name, and output checks that failed.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	problems          []string
}

func (o *outcome) checkf(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type workload func(runConfig) (*outcome, error)

var workloads = map[string]workload{
	"fleet":        runFleet,
	"localization": runLocalization,
	"switchboard":  runSwitchboard,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fleet, localization or switchboard")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload fleet|localization|switchboard, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	abs, err := filepath.Abs(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	out, err := run(runConfig{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, dir: abs,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	declared := spec.EndToEnd
	if *trace == 1 {
		declared = spec.PerLayer
	}
	line := resultLine{Attempted: out.attempted, Failed: out.failed, Metrics: make(map[string]metricValue)}
	units := endToEndUnits
	if *trace == 1 {
		units = layerUnits
	}
	for k, v := range out.metrics {
		u, ok := units[k]
		if !ok {
			out.problems = append(out.problems, "metric "+k+" has no unit in the benchmark's catalog")
		}
		line.Metrics[k] = metricValue{Value: v, Unit: u}
	}
	out.problems = append(out.problems, schemaProblems(declared, line.Metrics)...)
	line.Correct = len(out.problems) == 0
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *name, p)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !line.Correct || out.attempted < 1 {
		return 1
	}
	return 0
}

// spec is the part of BENCHMARK.json the benchmark checks itself against.
type spec struct {
	Seconds   int          `json:"run_seconds"`
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, errors.New(path + " declares no metrics")
	}
	return &s, nil
}

func unitsOf(ms []metricSpec) map[string]string {
	u := make(map[string]string, len(ms))
	for _, m := range ms {
		u[m.Name] = m.Unit
	}
	return u
}

// schemaProblems lists every printed metric BENCHMARK.json does not declare
// (or declares with another unit) and every declared metric not printed.
func schemaProblems(declared []metricSpec, printed map[string]metricValue) []string {
	var probs []string
	units := unitsOf(declared)
	for name, v := range printed {
		u, ok := units[name]
		switch {
		case !ok:
			probs = append(probs, "metric "+name+" is printed but not declared in BENCHMARK.json")
		case u != v.Unit:
			probs = append(probs, "metric "+name+" unit "+strconv.Quote(v.Unit)+" differs from BENCHMARK.json "+strconv.Quote(u))
		}
	}
	for _, m := range declared {
		if _, ok := printed[m.Name]; !ok {
			probs = append(probs, "metric "+m.Name+" is declared in BENCHMARK.json but not printed")
		}
	}
	sort.Strings(probs)
	return probs
}
