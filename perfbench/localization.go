package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pogo/internal/experiments"
	"pogo/internal/obs"
)

// The localization workload: experiments.Table4, the paper's Wi-Fi
// localization deployment, on its 9 sessions over a few simulated days in
// the paper's configuration (freeze/thaw off). One round replays all 9
// sessions, each as its own Table4 call so the benchmark can time it.
const (
	// locWorld seeds the synthetic deployment area (places and their access
	// points), held fixed like the paper's one deployment; --seed varies
	// the users' schedules and scan noise. Varying the area as well moved
	// allocations per scan by ±6% between seeds, against ±0.5% for the
	// schedules alone.
	locWorld  = 1
	locDays   = 2
	locSetups = 5
	// locWarmSession is the session replayed during set-up: user 2b, the
	// shortest.
	locWarmSession = 2
	// locPartialFloor is the lowest per-session partial match in the paper's
	// Table 4 (user 3, 83%). The location-weighted partial match over a
	// run's sessions must stay above it.
	locPartialFloor = 83.0
	// locReductionFloor: the paper reports a 98.3% reduction of transferred
	// data by on-phone clustering; anything at or below 95% means clustering
	// no longer summarizes scans.
	locReductionFloor = 95.0
)

func locSessions(seed int64) []experiments.SessionConfig {
	ss := experiments.DefaultSessions(locDays)
	for i := range ss {
		ss[i].Seed += seed * 1000
	}
	return ss
}

// replaySession runs one session in a fresh work directory (the durable
// outbox lives there) and removes the directory afterwards.
func replaySession(s experiments.SessionConfig, dir string, reg *obs.Registry) (experiments.SessionResult, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return experiments.SessionResult{}, 0, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	res, err := experiments.Table4(experiments.Table4Config{
		Seed: locWorld, Days: locDays, Sessions: []experiments.SessionConfig{s}, WorkDir: dir, Obs: reg,
	})
	d := time.Since(t0)
	if err != nil {
		return experiments.SessionResult{}, 0, err
	}
	if len(res.Rows) != 1 {
		return experiments.SessionResult{}, 0, fmt.Errorf("table4 returned %d rows for one session", len(res.Rows))
	}
	return res.Rows[0], d, nil
}

// heapPeak samples the live heap each GC cycle marked, every few
// milliseconds, and keeps the largest since it was last taken.
type heapPeak struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak atomic.Uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tk := time.NewTicker(5 * time.Millisecond)
		defer tk.Stop()
		for {
			v := heapLiveBytes()
			for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
			}
			select {
			case <-h.stop:
				return
			case <-tk.C:
			}
		}
	}()
	return h
}

// take returns the largest live heap seen since the last take.
func (h *heapPeak) take() uint64 { return h.peak.Swap(0) }

func (h *heapPeak) end() {
	close(h.stop)
	h.wg.Wait()
}

func runLocalization(cfg runConfig) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	sessions := locSessions(cfg.seed)
	n := 0 // replay directories made so far
	nextDir := func() string {
		n++
		return filepath.Join(cfg.dir, "table4-"+strconv.Itoa(n))
	}

	var setups []float64
	for i := 0; i < locSetups; i++ {
		t0, h0 := time.Now(), readHostCPU()
		if _, _, err := replaySession(sessions[locWarmSession], nextDir(), nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, unstolen(time.Since(t0), h0, readHostCPU()).Seconds())
	}

	var (
		rates, heaps    []float64
		fl              []flush
		raw, clustered  int64
		places          int
		partialWeighted float64
	)
	before := snapshot()
	peak := startHeapPeak()
	prof, err := startProfile(cfg.trace)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < cfg.seconds; round++ {
		var busy time.Duration
		var scans int
		for _, s := range sessions {
			at, h0 := time.Since(start), readHostCPU()
			row, d, err := replaySession(s, nextDir(), nil)
			if err != nil {
				prof.discard()
				peak.end()
				return nil, fmt.Errorf("session %s: %w", s.User, err)
			}
			d = unstolen(d, h0, readHostCPU())
			busy += d
			heaps = append(heaps, float64(peak.take())/(1<<20))
			scans += row.Scans
			fl = append(fl, flush{at: at, took: d, lat: d, ops: row.Scans})
			out.attempted += int64(row.Scans)
			raw += row.RawBytes
			clustered += row.ClusterBytes
			places += row.Locations
			partialWeighted += row.PartialPct * float64(row.Locations)

			out.checkf(row.Scans > 0, "session %s: no scans", row.User)
			out.checkf(row.Locations >= 1, "session %s: no place reported", row.User)
			out.checkf(row.ClusterBytes < row.RawBytes, "session %s: cluster bytes %d not below raw bytes %d", row.User, row.ClusterBytes, row.RawBytes)
			out.checkf(row.MatchPct >= 0 && row.MatchPct <= 100 && row.PartialPct >= 0 && row.PartialPct <= 100,
				"session %s: match %.1f%% / partial %.1f%% outside [0, 100]", row.User, row.MatchPct, row.PartialPct)
		}
		rates = append(rates, float64(scans)/busy.Seconds())
	}
	ops := out.attempted
	layers, err := prof.stop(ops)
	if err != nil {
		return nil, err
	}
	peak.end()
	after := snapshot()
	if ops == 0 || raw == 0 || places == 0 {
		return nil, fmt.Errorf("no scans or places")
	}
	reduction := 100 * (1 - float64(clustered)/float64(raw))
	out.checkf(reduction > locReductionFloor, "data reduction %.2f%% not above %.0f%%", reduction, locReductionFloor)
	partial := partialWeighted / float64(places)
	out.checkf(partial > locPartialFloor, "location-weighted partial match %.1f%% not above the paper's lowest, %.0f%%", partial, locPartialFloor)

	nops := float64(ops)
	_, p99s := windowed(fl, cfg.seconds, batchWindows)
	if !cfg.trace {
		out.metrics = map[string]float64{
			"setup_s":            median(setups),
			"ops_per_s":          median(rates),
			"cpu_us_per_op":      (after.cpu - before.cpu) * 1e6 / nops,
			"allocs_per_op":      float64(after.mallocs-before.mallocs) / nops,
			"alloc_bytes_per_op": float64(after.allocBytes-before.allocBytes) / nops,
			"heap_live_mb":       median(heaps),
			"flush_p50_ms":       percentile(latencies(fl), 0.50),
			"flush_p99_ms":       median(p99s),
		}
		return out, nil
	}
	retries, err := locRetriesPerOp(sessions, nextDir)
	if err != nil {
		return nil, err
	}
	m := zeroLayers()
	merge(m, layers)
	merge(m, runtimeLayers(before, after, ops))
	merge(m, map[string]float64{
		"trace.ops_per_s":          median(rates),
		"transport.retries_per_op": retries,
	})
	out.metrics = m
	return out, nil
}

// locRetriesPerOp replays every session once with an obs registry attached,
// outside the timed and profiled phase, and returns the transport
// retransmissions per scan.
func locRetriesPerOp(sessions []experiments.SessionConfig, nextDir func() string) (float64, error) {
	reg := obs.NewRegistry()
	scans := 0
	for _, s := range sessions {
		row, _, err := replaySession(s, nextDir(), reg)
		if err != nil {
			return 0, err
		}
		scans += row.Scans
	}
	return float64(counterSum(reg, "transport_retries_total")) / float64(scans), nil
}
