package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadyRuns is how many runs each of the two sets makes per workload.
const steadyRuns = 10

// steadyMain is the steadiness check. For each workload of BENCHMARK.json it
// makes two sets of untraced runs of run_seconds each, every run with its
// own seed, and prints for every end-to-end metric the median and quartiles
// of each set. It fails when a metric's spread within a set (interquartile
// distance over median) exceeds its bound, when the two sets' medians differ
// by more than the bound in either direction, or when the share of failed
// operations differs between the sets. setup_s is held to the median rule
// only: the switchboard's set-up is tens of milliseconds of loopback round
// trips whose level follows the machine's state from one process to the
// next (15 or 40 set-ups a run gave the same 24-36 ms range over 8
// processes), so its spread can pass even the widest bound a metric may
// have, while a change that moves work into set-up still moves its median.
// With --traced it also makes one
// traced run per workload and prints the tracing overhead: the traced run's
// ops_per_s against the untraced median.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	traced := fs.Bool("traced", false, "also make one traced run per workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}

	ok := true
	for _, wl := range sp.Workloads {
		w := wl.Name
		var sets [2][]resultLine
		for s := range sets {
			for i := 0; i < steadyRuns; i++ {
				seed := int64(1 + s*1000 + i)
				r, err := runOnce(self, w, seed, sp.Seconds, 0)
				if err != nil {
					fmt.Fprintf(os.Stderr, "steady: %s seed %d: %v\n", w, seed, err)
					return 1
				}
				sets[s] = append(sets[s], r)
			}
		}
		fmt.Printf("== %s: 2 sets x %d runs, %d s each\n", w, steadyRuns, sp.Seconds)
		if !reportSets(sp.EndToEnd, sets) {
			ok = false
		}
		if *traced {
			r, err := runOnce(self, w, 7777, sp.Seconds, 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "steady: %s traced: %v\n", w, err)
				return 1
			}
			var untraced []float64
			for _, r := range append(sets[0], sets[1]...) {
				untraced = append(untraced, r.Metrics["ops_per_s"].Value)
			}
			tr := r.Metrics["trace.ops_per_s"].Value
			fmt.Printf("   tracing overhead: traced ops_per_s %.6g vs untraced median %.6g (%+.1f%%)\n",
				tr, median(untraced), 100*(tr/median(untraced)-1))
		}
	}
	if !ok {
		fmt.Println("steady: FAIL")
		return 1
	}
	fmt.Println("steady: PASS")
	return 0
}

// runOnce runs the benchmark binary once and parses its last output line.
func runOnce(self, workload string, seed int64, seconds, trace int) (resultLine, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return resultLine{}, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return resultLine{}, fmt.Errorf("parse result: %w", err)
	}
	if !r.Correct {
		return resultLine{}, fmt.Errorf("run reports correct=false")
	}
	return r, nil
}

// reportSets prints one row per metric and reports whether the sets agree.
func reportSets(metrics []metricSpec, sets [2][]resultLine) bool {
	ok := true
	var share [2]float64
	for s := range sets {
		var att, fail int64
		for _, r := range sets[s] {
			att += r.Attempted
			fail += r.Failed
		}
		share[s] = float64(fail) / float64(att)
	}
	if share[0] != share[1] {
		fmt.Printf("   failed share differs: %g vs %g\n", share[0], share[1])
		ok = false
	}
	fmt.Printf("   %-20s %-9s %12s %12s %12s %8s | %12s %8s %8s  %s\n",
		"metric", "unit", "q1", "median", "q3", "spread", "median2", "spread2", "drift", "verdict")
	for _, m := range metrics {
		var st [2]stats
		for s := range sets {
			var xs []float64
			for _, r := range sets[s] {
				xs = append(xs, r.Metrics[m.Name].Value)
			}
			st[s] = quartiles(xs)
		}
		drift := (st[1].median - st[0].median) / st[0].median
		if m.Better == "higher" {
			drift = -drift
		}
		verdict := "ok"
		if m.Name != "setup_s" && (st[0].spread() > m.Bound || st[1].spread() > m.Bound) {
			verdict = "SPREAD > bound"
			ok = false
		}
		if math.Abs(drift) > m.Bound {
			verdict = "DRIFT > bound"
			ok = false
		}
		if verdict == "ok" && m.Name != "setup_s" && math.Max(st[0].spread(), st[1].spread()) > m.Bound/3 {
			verdict = "ok (spread > bound/3)"
		}
		fmt.Printf("   %-20s %-9s %12.6g %12.6g %12.6g %7.2f%% | %12.6g %7.2f%% %+7.2f%%  %s (bound %g)\n",
			m.Name, m.Unit, st[0].q1, st[0].median, st[0].q3, 100*st[0].spread(),
			st[1].median, 100*st[1].spread(), 100*drift, verdict, m.Bound)
	}
	return ok
}

type stats struct{ q1, median, q3 float64 }

func (s stats) spread() float64 { return (s.q3 - s.q1) / s.median }

// quartiles computes the quartiles the way Python's
// statistics.quantiles(xs, n=4) does (its default, exclusive method).
func quartiles(xs []float64) stats {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) < 2 {
		v := median(d)
		return stats{v, v, v}
	}
	const n = 4
	ld := len(d)
	m := ld + 1
	q := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		q = append(q, (d[j-1]*(n-delta)+d[j]*delta)/n)
	}
	return stats{q[0], q[1], q[2]}
}
