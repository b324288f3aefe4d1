package main

// endToEndUnits and layerUnits are the benchmark's own catalog of every
// metric it prints on untraced and traced runs, with units. Each run checks
// what it prints against BENCHMARK.json, so a metric added here and not
// there (or the other way round) fails the run.
var endToEndUnits = map[string]string{
	"setup_s":            "s",
	"ops_per_s":          "op/s",
	"cpu_us_per_op":      "us/op",
	"allocs_per_op":      "count/op",
	"alloc_bytes_per_op": "B/op",
	"heap_live_mb":       "MiB",
	"flush_p50_ms":       "ms",
	"flush_p99_ms":       "ms",
}

var layerUnits = map[string]string{
	"trace.ops_per_s":               "op/s",
	"profile.cpu_us_per_op":         "us/op",
	"runtime.gc.cpu_us_per_op":      "us/op",
	"other.cpu_us_per_op":           "us/op",
	"runtime.gc_cycles_per_op":      "count/op",
	"runtime.mutex_wait_us_per_op":  "us/op",
	"runtime.sched_latency_p99_us":  "us",
	"io.write_syscalls_per_op":      "count/op",
	"host.stolen_pct":               "%",
	"fleet.events_per_op":           "count/op",
	"fleet.epochs_per_op":           "count/op",
	"fleet.cross_shard_msgs_per_op": "count/op",
	"fleet.fabric_msgs_per_op":      "count/op",
	"transport.retries_per_op":      "count/op",
	"transport.enqueue_us":          "us",
	"transport.flush_us":            "us",
	"transport.receive_us":          "us",
	"transport.ack_wait_ms":         "ms",
	"xmpp.send_batch_us":            "us",
	"xmpp.wire_bytes_per_op":        "B/op",
}

func init() {
	for _, m := range modules {
		layerUnits[m+".cpu_us_per_op"] = "us/op"
	}
}

// zeroLayers returns every per-layer metric at 0. A workload fills in the
// layers it exercises; the rest stay 0 because the layer does no work there
// or the benchmark makes no such call there (README.md lists which).
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(layerUnits))
	for name := range layerUnits {
		m[name] = 0
	}
	return m
}

func merge(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] = v
	}
}
