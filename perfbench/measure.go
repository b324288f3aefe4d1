package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is one reading of the counters the benchmark takes from outside
// the program: getrusage CPU, the allocator's object and byte totals,
// runtime/metrics, /proc/self/io and the machine's /proc/stat.
type procSnap struct {
	cpu        float64 // user + system seconds
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint64
	mutexWait  float64 // seconds goroutines spent blocked on sync.Mutex/RWMutex
	sched      *metrics.Float64Histogram
	syscw      int64 // write syscalls (/proc/self/io); -1 when unreadable
	host       hostCPU
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sync/mutex/wait/total:seconds"},
	{Name: "/sched/latencies:seconds"},
}

func snapshot() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return procSnap{
		cpu:        cpuSeconds(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   s[0].Value.Uint64(),
		mutexWait:  s[1].Value.Float64(),
		sched:      s[2].Value.Float64Histogram(),
		syscw:      writeSyscalls(),
		host:       readHostCPU(),
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// writeSyscalls reads the syscw line of /proc/self/io: the number of write
// system calls the whole process has made.
func writeSyscalls() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "syscw:"); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err == nil {
				return n
			}
		}
	}
	return -1
}

// hostCPU is the machine's CPU time from the first line of /proc/stat, in
// clock ticks: time spent running anything, and time the hypervisor ran
// other guests while one of this machine's virtual CPUs wanted to run.
type hostCPU struct{ busy, steal int64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var v [8]int64
	for i := range v {
		v[i], _ = strconv.ParseInt(f[i+1], 10, 64)
	}
	// user nice system idle iowait irq softirq steal
	return hostCPU{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// stolenShare is the share of the CPU time this machine's busy virtual
// CPUs wanted between two readings that the hypervisor gave to other
// guests. On the shared reference VM it ranged from 2% to 45% within one
// run and set a fleet round's wall time almost alone (1.24 s at 9% stolen,
// 2.37 s at 45%). The wall-clock metrics scale their times by 1 − share:
// they measure the program, not the neighbours. It is 0 on a machine that
// reports no steal.
func stolenShare(a, b hostCPU) float64 {
	steal, busy := b.steal-a.steal, b.busy-a.busy
	if steal <= 0 || steal+busy <= 0 {
		return 0
	}
	return float64(steal) / float64(steal+busy)
}

// unstolen scales a duration by the share of it the machine was not stolen.
func unstolen(d time.Duration, a, b hostCPU) time.Duration {
	return time.Duration(float64(d) * (1 - stolenShare(a, b)))
}

// heapLiveBytes is the live heap the last completed GC cycle marked.
func heapLiveBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// schedP99 returns the 99th percentile, in seconds, of the goroutine
// scheduling latencies recorded between two readings of the histogram (the
// upper edge of the bucket holding it). 0 when nothing was recorded.
func schedP99(before, after *metrics.Float64Histogram) float64 {
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range delta {
		cum += c
		if cum >= want {
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return after.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// runtimeLayers turns the process counters between two snapshots into the
// per-layer runtime and I/O metrics, per operation.
func runtimeLayers(a, b procSnap, ops int64) map[string]float64 {
	n := float64(ops)
	m := map[string]float64{
		"runtime.gc_cycles_per_op":     float64(b.gcCycles-a.gcCycles) / n,
		"runtime.mutex_wait_us_per_op": (b.mutexWait - a.mutexWait) * 1e6 / n,
		"runtime.sched_latency_p99_us": schedP99(a.sched, b.sched) * 1e6,
		"io.write_syscalls_per_op":     float64(b.syscw-a.syscw) / n,
		"host.stolen_pct":              100 * stolenShare(a.host, b.host),
	}
	if a.syscw < 0 || b.syscw < 0 {
		m["io.write_syscalls_per_op"] = 0
	}
	return m
}

// cpuProfile records a CPU profile of this process into memory while a
// traced run's timed phase runs.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile(on bool) (*cpuProfile, error) {
	if !on {
		return nil, nil
	}
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and folds it into per-module CPU per operation.
// A nil profile (untraced run) yields no metrics.
func (p *cpuProfile) stop(ops int64) (map[string]float64, error) {
	if p == nil {
		return nil, nil
	}
	pprof.StopCPUProfile()
	stacks, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	return foldPerOp(fold(stacks), ops)
}

// discard ends the profile on an error path.
func (p *cpuProfile) discard() {
	if p != nil {
		pprof.StopCPUProfile()
	}
}

// flush is one unit of work a user waits on: a switchboard batch, a
// localization session, a simulated fleet.
type flush struct {
	at   time.Duration // start, from the start of the timed phase
	took time.Duration // until the workload counted it done
	lat  time.Duration // first enqueue to last delivery
	ops  int
}

// windowed groups flushes by which of k equal windows of the timed phase
// they started in (flushes that start after the nominal end join the last)
// and returns each window's throughput and p99 flush latency in ms. Empty
// windows are skipped. Medians over windows move when load from outside
// the benchmark slows most of a run, not when a burst slows one window.
func windowed(fs []flush, span time.Duration, k int) (rates, p99s []float64) {
	groups := make([][]flush, k)
	for _, f := range fs {
		i := windowOf(f.at, span, k)
		groups[i] = append(groups[i], f)
	}
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		var ops int
		var took time.Duration
		for _, f := range g {
			ops += f.ops
			took += f.took
		}
		rates = append(rates, float64(ops)/took.Seconds())
		p99s = append(p99s, percentile(latencies(g), 0.99))
	}
	return rates, p99s
}

func windowOf(at, span time.Duration, k int) int {
	if i := int(int64(at) * int64(k) / int64(span)); i < k {
		return i
	}
	return k - 1
}

// latencies returns the flushes' latencies in ms.
func latencies(fs []flush) []float64 {
	out := make([]float64, len(fs))
	for i, f := range fs {
		out[i] = f.lat.Seconds() * 1e3
	}
	return out
}

// percentile returns the q-quantile (0..1) of xs by the nearest-rank rule.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
