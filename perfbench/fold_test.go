package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"pogo/internal/msg"
)

func TestFoldChargesInnermostModuleFrame(t *testing.T) {
	stacks := []stack{
		// The standard library under a module counts toward that module.
		{ns: 100, frames: []string{"encoding/json.Marshal", "pogo/internal/store.(*Outbox).appendLocked",
			"pogo/internal/transport.(*Endpoint).EnqueueTraced", "main.main"}},
		{ns: 200, frames: []string{"internal/poll.(*FD).Write", "net.(*conn).Write",
			"pogo/internal/xmpp.(*Client).SendMessages", "pogo/internal/transport.(*XMPPMessenger).SendBatch"}},
		// A GC assist is charged to the allocating module.
		{ns: 30, frames: []string{"runtime.gcAssistAlloc", "runtime.mallocgc", "pogo/internal/vclock.(*Sim).Schedule"}},
		{ns: 40, frames: []string{"pogo/internal/experiments.buildFleetWorld.func3", "pogo/internal/fleet.(*Shard).run"}},
		{ns: 50, frames: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{ns: 60, frames: []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}},
		{ns: 70, frames: []string{"pogo/internal/script.(*Interp).eval.func1"}},
		{ns: 5, frames: nil},
	}
	r := fold(stacks)
	want := map[string]int64{
		"store": 100, "xmpp": 200, "vclock": 30, "experiments": 40,
		gcBucket: 50, otherBucket: 65, "script": 70,
	}
	if len(r.ns) != len(want) {
		t.Fatalf("buckets %v, want %v", r.ns, want)
	}
	for b, ns := range want {
		if r.ns[b] != ns {
			t.Errorf("bucket %s = %d ns, want %d", b, r.ns[b], ns)
		}
	}
	if r.total != 555 {
		t.Fatalf("total %d, want 555", r.total)
	}
	m, err := foldPerOp(r, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := m["xmpp.cpu_us_per_op"]; got != 0.04 {
		t.Errorf("xmpp.cpu_us_per_op = %v, want 0.04", got)
	}
	if got := m["fleet.cpu_us_per_op"]; got != 0 {
		t.Errorf("fleet.cpu_us_per_op = %v, want 0 (only an outer frame)", got)
	}
	var sum float64
	for _, mod := range modules {
		sum += m[mod+".cpu_us_per_op"]
	}
	sum += m["runtime.gc.cpu_us_per_op"] + m["other.cpu_us_per_op"]
	if d := sum - m["profile.cpu_us_per_op"]; d > 1e-12 || d < -1e-12 {
		t.Errorf("buckets add up to %v us/op, profile total %v", sum, m["profile.cpu_us_per_op"])
	}
}

func TestFoldRejectsUnlistedModule(t *testing.T) {
	r := fold([]stack{{ns: 1, frames: []string{"pogo/internal/newmodule.F"}}})
	if _, err := foldPerOp(r, 1); err == nil {
		t.Fatal("a module missing from the list was accepted")
	}
}

// TestParseProfileOfThisProcess profiles a loop inside internal/msg and
// checks that the decoded profile charges it there.
func TestParseProfileOfThisProcess(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profile unavailable:", err)
	}
	v := msg.Map{"aps": []msg.Value{msg.Map{"bssid": "02:00:00:00:00:01", "rssi": -50.0}}, "timestamp": 1.0}
	for end := time.Now().Add(400 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			if _, err := msg.EncodeJSON(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r := fold(stacks)
	if r.total == 0 || r.ns["msg"] < r.total/2 {
		t.Fatalf("msg bucket %d ns of %d ns total, want most of it", r.ns["msg"], r.total)
	}
	if _, err := foldPerOp(r, 1); err != nil {
		t.Fatal(err)
	}
}
