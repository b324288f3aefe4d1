package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"

	"pogo/internal/experiments"
	"pogo/internal/obs"
)

// The fleet workload: experiments.Fleet in this process with the
// FleetScenario light-fault mix, one simulated fleet per round, a new seed
// per round. Two shards, as many as the reference box has CPUs, so the
// epoch barrier between them is on the measured path.
const (
	fleetPhones   = 2000
	fleetShards   = 2
	fleetUploads  = 20 // per phone, phone → collector
	fleetCommands = 3  // per phone, collector → phone
)

// batchWindows is how many windows the batch workloads (fleet,
// localization) take flush_p99_ms over: with about 26 rounds a run, 4
// windows leave 6 or 7 rounds in each.
const batchWindows = 4

func fleetConfig(seed int64, shards int) experiments.FleetConfig {
	fc := experiments.FleetScenario(seed, fleetPhones, shards)
	fc.MessagesPerPhone = fleetUploads
	fc.CommandsPerPhone = fleetCommands
	return fc
}

func fleetRoundSeed(seed int64, round int) int64 { return seed*1000 + int64(round) }

// runFleet times whole experiments.Fleet calls. CPU and allocations are
// the process's own counters over the timed phase, so world build and log
// sealing count with the run; only ops_per_s and setup_s use the program's
// WallSeconds, to split a call into its run and the work around it.
func runFleet(cfg runConfig) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	want := int64(fleetPhones * (fleetUploads + fleetCommands))
	var (
		rates, setups, heaps          []float64
		fl                            []flush
		events, epochs, cross, fabric int64
		firstHash                     string
	)

	before := snapshot()
	prof, err := startProfile(cfg.trace)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < cfg.seconds; round++ {
		fc := fleetConfig(fleetRoundSeed(cfg.seed, round), fleetShards)
		t0, h0 := time.Now(), readHostCPU()
		res := experiments.Fleet(fc)
		call := time.Since(t0).Seconds()
		h1 := readHostCPU()

		out.attempted += want
		out.failed += want - int64(res.Delivered)
		out.checkf(res.Expected == int(want), "round %d: fleet expects %d deliveries, the benchmark's config gives %d", round, res.Expected, want)
		out.checkf(res.Lost == 0 && res.Duplicated == 0 && res.OutOfOrder == 0 && res.Undrained == 0,
			"round %d: lost=%d dup=%d ooo=%d undrained=%d", round, res.Lost, res.Duplicated, res.OutOfOrder, res.Undrained)
		if round == 0 {
			firstHash = res.LogSHA256
		}
		wall := unstolen(time.Duration(res.WallSeconds*float64(time.Second)), h0, h1)
		fl = append(fl, flush{at: t0.Sub(start), took: wall, lat: wall, ops: res.Delivered})
		rates = append(rates, float64(res.Delivered)/wall.Seconds())
		setups = append(setups, unstolen(time.Duration((call-res.WallSeconds)*float64(time.Second)), h0, h1).Seconds())
		heaps = append(heaps, res.BytesPerPhone*float64(res.Phones)/(1<<20))
		events += res.Events
		epochs += int64(res.Epochs)
		cross += res.CrossShard
		fabric += res.FabricMessages
	}
	ops := out.attempted - out.failed
	layers, err := prof.stop(ops)
	if err != nil {
		return nil, err
	}
	after := snapshot()
	if ops <= 0 {
		return nil, fmt.Errorf("no deliveries")
	}

	// Untimed: the benchmark's own audit of a delivery log, and partition
	// invariance of that log between 1 shard and the timed run's 2 shards.
	checkFleetLog(out, fleetRoundSeed(cfg.seed, 0), firstHash)

	n := float64(ops)
	_, p99s := windowed(fl, cfg.seconds, batchWindows)
	if !cfg.trace {
		out.metrics = map[string]float64{
			"setup_s":            median(setups),
			"ops_per_s":          median(rates),
			"cpu_us_per_op":      (after.cpu - before.cpu) * 1e6 / n,
			"allocs_per_op":      float64(after.mallocs-before.mallocs) / n,
			"alloc_bytes_per_op": float64(after.allocBytes-before.allocBytes) / n,
			"heap_live_mb":       median(heaps),
			"flush_p50_ms":       percentile(latencies(fl), 0.50),
			"flush_p99_ms":       median(p99s),
		}
		return out, nil
	}
	retries, err := fleetRetriesPerOp(fleetRoundSeed(cfg.seed, 0))
	if err != nil {
		return nil, err
	}
	m := zeroLayers()
	merge(m, layers)
	merge(m, runtimeLayers(before, after, ops))
	merge(m, map[string]float64{
		"trace.ops_per_s":               median(rates),
		"fleet.events_per_op":           float64(events) / n,
		"fleet.epochs_per_op":           float64(epochs) / n,
		"fleet.cross_shard_msgs_per_op": float64(cross) / n,
		"fleet.fabric_msgs_per_op":      float64(fabric) / n,
		"transport.retries_per_op":      retries,
	})
	out.metrics = m
	return out, nil
}

// checkFleetLog runs one fleet at 1 shard with its delivery log kept and
// audits the log itself: every (sender, receiver, channel) stream carries
// sequence numbers 0..k-1 exactly once and in order, with k taken from the
// benchmark's config; the total is phones × (uploads + commands); the log
// hashes to what the program reports; and that hash equals the 2-shard run
// of the same seed.
func checkFleetLog(out *outcome, seed int64, twoShardHash string) {
	fc := fleetConfig(seed, 1)
	fc.KeepLog = true
	res := experiments.Fleet(fc)

	type streamKey struct{ src, dst, ch string }
	next := make(map[streamKey]int)
	uploadsFrom := make(map[string]int) // phone → upload streams it sends
	cmdsTo := make(map[string]int)      // phone → command streams it receives
	lastT := -1
	bad := 0
	for i, line := range res.Log {
		f := strings.Fields(line)
		var t, n int
		var err1, err2 error
		if len(f) == 6 && strings.HasPrefix(f[0], "t=") && f[2] == "<-" {
			t, err1 = strconv.Atoi(f[0][2:])
			n, err2 = strconv.Atoi(f[5])
		}
		if len(f) != 6 || err1 != nil || err2 != nil {
			out.checkf(false, "fleet log line %d malformed: %q", i, line)
			return
		}
		if t < lastT {
			bad++
		}
		lastT = t
		k := streamKey{src: f[3], dst: f[1], ch: f[4]}
		if next[k] == 0 {
			switch k.ch {
			case "upload":
				uploadsFrom[k.src]++
			case "cmd":
				cmdsTo[k.dst]++
			}
		}
		if n != next[k] {
			bad++
		}
		next[k] = n + 1
	}
	out.checkf(bad == 0, "fleet log: %d lines out of time order or out of sequence", bad)
	out.checkf(len(res.Log) == fleetPhones*(fleetUploads+fleetCommands),
		"fleet log has %d deliveries, want %d", len(res.Log), fleetPhones*(fleetUploads+fleetCommands))
	out.checkf(len(uploadsFrom) == fleetPhones && len(cmdsTo) == fleetPhones,
		"fleet log: %d phones upload, %d receive commands, want %d each", len(uploadsFrom), len(cmdsTo), fleetPhones)
	for k, n := range next {
		want := fleetUploads
		if k.ch == "cmd" {
			want = fleetCommands
		}
		if k.ch != "upload" && k.ch != "cmd" || n != want {
			out.checkf(false, "fleet log: stream %s -> %s %s ends at %d, want %d", k.src, k.dst, k.ch, n, want)
			break
		}
	}
	for p, c := range uploadsFrom {
		if c != 1 || cmdsTo[p] != 1 {
			out.checkf(false, "fleet log: %s has %d upload and %d command streams, want 1 each", p, c, cmdsTo[p])
			break
		}
	}
	sum := sha256.Sum256([]byte(strings.Join(res.Log, "\n")))
	own := hex.EncodeToString(sum[:])
	out.checkf(own == res.LogSHA256, "fleet log hashes to %s, the program reports %s", own, res.LogSHA256)
	out.checkf(own == twoShardHash, "fleet log at 1 shard hashes to %s, at %d shards to %s", own, fleetShards, twoShardHash)
}

// fleetRetriesPerOp replays one round with an obs registry attached, outside
// the timed and profiled phase (metering adds work to the hot path), and
// returns the endpoints' retransmissions per delivery.
func fleetRetriesPerOp(seed int64) (float64, error) {
	fc := fleetConfig(seed, fleetShards)
	fc.Obs = obs.NewRegistry()
	res := experiments.Fleet(fc)
	if res.Delivered == 0 {
		return 0, fmt.Errorf("metered fleet round delivered nothing")
	}
	return float64(counterSum(fc.Obs, "transport_retries_total")) / float64(res.Delivered), nil
}

// counterSum adds up a counter over all its label sets.
func counterSum(reg *obs.Registry, name string) int64 {
	var n int64
	for k, v := range reg.Snapshot().Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			n += v
		}
	}
	return n
}
