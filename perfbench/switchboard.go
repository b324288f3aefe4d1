package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"pogo/internal/msg"
	"pogo/internal/obs"
	"pogo/internal/store"
	"pogo/internal/transport"
	"pogo/internal/vclock"
	"pogo/internal/xmpp"
)

// The switchboard workload: a live xmpp.Server on loopback, one phone and
// one collector transport.Endpoint dialled through transport.DialXMPP, both
// with file-backed outboxes, on the real clock. Like a phone flushing its
// outbox, the phone enqueues a batch of scan-sized messages and flushes,
// then waits until the collector has every message and the phone has every
// ack before it sends the next batch (a closed loop with one client).
const (
	sbBatch       = 128 // messages per flush
	sbScans       = 64  // distinct scan payloads the messages cycle through
	sbWarmBatches = 8   // batches sent during set-up, before timing
	sbSetups      = 15  // set-ups per run; setup_s is their median
	// sbWindows splits the timed phase into equal windows. ops_per_s and
	// flush_p99_ms are the medians of the windows' figures, so a burst of
	// load from outside the benchmark moves one window, not the result.
	sbWindows   = 5
	sbChannel   = "wifi-scan"
	sbBatchWait = 10 * time.Second // a batch not drained by then fails the run
)

// meteredMessenger wraps the messenger the benchmark hands to an endpoint.
// It keeps the program's path: it implements BatchSender and TraceSender by
// passing straight through, because an endpoint falls back to one send per
// destination when its messenger lacks BatchSender. It times SendBatch and
// the receive callback, counts the payload bytes handed to XMPP, and wakes
// the benchmark after each receive.
type meteredMessenger struct {
	transport.Messenger
	batch  transport.BatchSender
	traced transport.TraceSender
	wake   func()

	sendBatchNs, sendBatches atomic.Int64
	receiveNs, receives      atomic.Int64
	wireBytes                atomic.Int64
}

var (
	_ transport.BatchSender = (*meteredMessenger)(nil)
	_ transport.TraceSender = (*meteredMessenger)(nil)
)

func newMetered(m *transport.XMPPMessenger, wake func()) *meteredMessenger {
	return &meteredMessenger{Messenger: m, batch: m, traced: m, wake: wake}
}

func (m *meteredMessenger) Send(to string, payload []byte) error {
	err := m.Messenger.Send(to, payload)
	if err == nil {
		m.wireBytes.Add(int64(len(payload)))
	}
	return err
}

func (m *meteredMessenger) SendTraced(to string, payload []byte, traces []obs.TraceID) error {
	err := m.traced.SendTraced(to, payload, traces)
	if err == nil {
		m.wireBytes.Add(int64(len(payload)))
	}
	return err
}

func (m *meteredMessenger) SendBatch(batch []transport.Outgoing) (int, error) {
	t0 := time.Now()
	n, err := m.batch.SendBatch(batch)
	m.sendBatchNs.Add(int64(time.Since(t0)))
	m.sendBatches.Add(1)
	for _, o := range batch[:n] {
		m.wireBytes.Add(int64(len(o.Payload)))
	}
	return n, err
}

func (m *meteredMessenger) OnReceive(fn func(from string, payload []byte)) {
	m.Messenger.OnReceive(func(from string, payload []byte) {
		t0 := time.Now()
		fn(from, payload)
		m.receiveNs.Add(int64(time.Since(t0)))
		m.receives.Add(1)
		m.wake()
	})
}

// switchboard is one set-up of the workload.
type switchboard struct {
	server                 *xmpp.Server
	phoneMsgr, collMsgr    *transport.XMPPMessenger
	phoneMeter, collMeter  *meteredMessenger // nil when unwrapped
	phoneBox, collBox      *store.Outbox
	phone, collector       *transport.Endpoint
	scans                  []msg.Map
	sent                   int64 // messages enqueued so far (the next sequence number)
	wake                   chan struct{}
	delivered, lastDeliver atomic.Int64
	mismatches             atomic.Int64

	enqueueNs, flushNs, ackWaitNs, flushes int64
}

// scanPayloads makes the scan-shaped payloads the phone uploads: a
// timestamp and 8 access points, each with BSSID, SSID and RSSI.
func scanPayloads(seed int64) []msg.Map {
	rng := rand.New(rand.NewSource(seed))
	out := make([]msg.Map, sbScans)
	for i := range out {
		aps := make([]msg.Value, 8)
		for j := range aps {
			aps[j] = msg.Map{
				"bssid": fmt.Sprintf("02:%02x:%02x:%02x:%02x:%02x", rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(256)),
				"ssid":  "net-" + strconv.Itoa(100+rng.Intn(900)),
				"rssi":  float64(-40 - rng.Intn(50)),
			}
		}
		out[i] = msg.Map{"timestamp": float64(1338508800000 + int64(i)*60000), "aps": aps}
	}
	return out
}

// openSwitchboard starts the server, opens both outboxes under dir, logs
// the collector and then the phone in, and sends the warm-up batches. With
// wrap false the endpoints get the bare XMPP messengers (the self-test's
// reference run); reg, when non-nil, instruments both messengers.
func openSwitchboard(dir string, seed int64, wrap bool, reg *obs.Registry) (*switchboard, error) {
	sb := &switchboard{scans: scanPayloads(seed), wake: make(chan struct{}, 1)}
	ok := false
	defer func() {
		if !ok {
			sb.close()
		}
	}()
	sb.server = xmpp.NewServer(xmpp.ServerConfig{Addr: "127.0.0.1:0"})
	sb.server.AddAccount("phone", "pw")
	sb.server.AddAccount("collector", "pw")
	sb.server.Associate("collector", "phone")
	if err := sb.server.Start(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if sb.phoneBox, err = store.Open(filepath.Join(dir, "phone.outbox")); err != nil {
		return nil, err
	}
	if sb.collBox, err = store.Open(filepath.Join(dir, "collector.outbox")); err != nil {
		return nil, err
	}
	if sb.collMsgr, err = transport.DialXMPP(sb.server.Addr(), "collector", "pw", "bench"); err != nil {
		return nil, fmt.Errorf("collector login: %w", err)
	}
	if sb.phoneMsgr, err = transport.DialXMPP(sb.server.Addr(), "phone", "pw", "bench"); err != nil {
		return nil, fmt.Errorf("phone login: %w", err)
	}
	sb.collMsgr.Instrument(reg)
	sb.phoneMsgr.Instrument(reg)
	var phoneM, collM transport.Messenger = sb.phoneMsgr, sb.collMsgr
	if wrap {
		sb.phoneMeter = newMetered(sb.phoneMsgr, sb.poke)
		sb.collMeter = newMetered(sb.collMsgr, func() {})
		phoneM, collM = sb.phoneMeter, sb.collMeter
	}
	clk := vclock.Real{}
	sb.collector = transport.NewEndpoint(collM, sb.collBox, clk, transport.EndpointConfig{BootID: "collector-boot", TraceSeed: seed})
	sb.phone = transport.NewEndpoint(phoneM, sb.phoneBox, clk, transport.EndpointConfig{BootID: "phone-boot", TraceSeed: seed})
	sb.collector.OnMessage(sb.onDeliver)
	for i := 0; i < sbWarmBatches; i++ {
		if _, err := sb.batch(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	ok = true
	return sb, nil
}

func (sb *switchboard) poke() {
	select {
	case sb.wake <- struct{}{}:
	default:
	}
}

// onDeliver is the collector's handler. Deliveries arrive on one goroutine
// (the collector connection's reader) in sequence order, each carrying the
// benchmark's own sequence number and one of its scan payloads.
func (sb *switchboard) onDeliver(from, channel string, payload msg.Value) {
	want := sb.delivered.Load()
	m, _ := payload.(msg.Map)
	seq, _ := m["seq"].(float64)
	if from != "phone" || channel != sbChannel || int64(seq) != want ||
		!msg.Equal(m["scan"], sb.scans[want%sbScans]) {
		sb.mismatches.Add(1)
	}
	sb.lastDeliver.Store(time.Now().UnixNano())
	sb.delivered.Add(1)
	sb.poke()
}

// batch enqueues and flushes one batch, then waits until the collector has
// delivered all of it and the phone's outbox has drained. It returns the
// time from the first enqueue to the last delivery.
func (sb *switchboard) batch() (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < sbBatch; i++ {
		seq := sb.sent
		if err := sb.phone.Enqueue("collector", sbChannel, msg.Map{"seq": float64(seq), "scan": sb.scans[seq%sbScans]}); err != nil {
			return 0, err
		}
		sb.sent++
	}
	t1 := time.Now()
	sb.phone.Flush()
	t2 := time.Now()
	sb.enqueueNs += int64(t1.Sub(t0))
	sb.flushNs += int64(t2.Sub(t1))
	sb.flushes++

	deadline := time.NewTimer(sbBatchWait)
	defer deadline.Stop()
	// Without the metered phone messenger nothing wakes the loop when an
	// ack lands, so the unwrapped reference run polls.
	var poll <-chan time.Time
	if sb.phoneMeter == nil {
		tk := time.NewTicker(time.Millisecond)
		defer tk.Stop()
		poll = tk.C
	}
	for sb.delivered.Load() < sb.sent || sb.phone.Pending() > 0 {
		select {
		case <-sb.wake:
		case <-poll:
		case <-deadline.C:
			return 0, fmt.Errorf("batch not drained after %v: delivered %d of %d, %d unacked",
				sbBatchWait, sb.delivered.Load(), sb.sent, sb.phone.Pending())
		}
	}
	sb.ackWaitNs += int64(time.Since(t2))
	return time.Unix(0, sb.lastDeliver.Load()).Sub(t0), nil
}

func (sb *switchboard) close() {
	for _, m := range []*transport.XMPPMessenger{sb.phoneMsgr, sb.collMsgr} {
		if m != nil {
			m.Close()
		}
	}
	if sb.server != nil {
		sb.server.Close()
	}
	for _, b := range []*store.Outbox{sb.phoneBox, sb.collBox} {
		if b != nil {
			b.Close()
		}
	}
}

func runSwitchboard(cfg runConfig) (*outcome, error) {
	// One phone's closed loop is a chain of handoffs between goroutines. On
	// one P they hand off through the netpoller on one thread; on two, each
	// handoff may wake an idle CPU, and on the shared 2-vCPU reference box
	// those wake-ups made throughput vary by a third from run to run.
	runtime.GOMAXPROCS(1)
	out := &outcome{metrics: map[string]float64{}}
	// A set-up is a few clock ticks of /proc/stat long, too short to read a
	// stolen share of its own, so the share over all set-ups corrects their
	// median.
	var setups []float64
	var sb *switchboard
	h0 := readHostCPU()
	for i := 0; i < sbSetups; i++ {
		t0 := time.Now()
		s, err := openSwitchboard(filepath.Join(cfg.dir, "switchboard-"+strconv.Itoa(i)), cfg.seed, true, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < sbSetups-1 {
			s.close()
		} else {
			sb = s
		}
	}
	defer sb.close()
	setup := (1 - stolenShare(h0, readHostCPU())) * median(setups)

	warm := sb.sent
	sb.enqueueNs, sb.flushNs, sb.ackWaitNs, sb.flushes = 0, 0, 0, 0
	pm, cm := sb.phoneMeter, sb.collMeter
	sendBatchNs0, sendBatches0 := pm.sendBatchNs.Load(), pm.sendBatches.Load()
	recvNs0 := pm.receiveNs.Load() + cm.receiveNs.Load()
	recvs0 := pm.receives.Load() + cm.receives.Load()
	wire0 := pm.wireBytes.Load() + cm.wireBytes.Load()
	retries0 := sb.phone.Stats().Retries + sb.collector.Stats().Retries

	// A batch is too short for /proc/stat's clock ticks, so the stolen
	// share is taken per window and applied to the time of the window's
	// batches (throughput only; latencies stay as measured).
	var fl []flush
	first, win, h := 0, 0, readHostCPU()
	closeWindow := func() {
		now := readHostCPU()
		for i := first; i < len(fl); i++ {
			fl[i].took = unstolen(fl[i].took, h, now)
		}
		first, h = len(fl), now
	}
	before := snapshot()
	prof, err := startProfile(cfg.trace)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for time.Since(start) < cfg.seconds {
		t0 := time.Now()
		if w := windowOf(t0.Sub(start), cfg.seconds, sbWindows); w != win {
			closeWindow()
			win = w
		}
		d, err := sb.batch()
		if err != nil {
			prof.discard()
			return nil, err
		}
		fl = append(fl, flush{at: t0.Sub(start), took: time.Since(t0), lat: d, ops: sbBatch})
	}
	closeWindow()
	ops := sb.sent - warm
	layers, err := prof.stop(ops)
	if err != nil {
		return nil, err
	}
	after := snapshot()
	out.attempted = ops
	out.failed = ops - (sb.delivered.Load() - warm)

	out.checkf(sb.mismatches.Load() == 0, "collector saw %d deliveries out of sequence or unequal to what was sent", sb.mismatches.Load())
	out.checkf(sb.delivered.Load() == sb.sent, "collector delivered %d of %d messages", sb.delivered.Load(), sb.sent)
	out.checkf(sb.phone.Pending() == 0 && sb.collector.Pending() == 0,
		"outboxes not empty: phone %d, collector %d", sb.phone.Pending(), sb.collector.Pending())

	n := float64(ops)
	rates, p99s := windowed(fl, cfg.seconds, sbWindows)
	if !cfg.trace {
		runtime.GC()
		runtime.GC()
		out.metrics = map[string]float64{
			"setup_s":            setup,
			"ops_per_s":          median(rates),
			"cpu_us_per_op":      (after.cpu - before.cpu) * 1e6 / n,
			"allocs_per_op":      float64(after.mallocs-before.mallocs) / n,
			"alloc_bytes_per_op": float64(after.allocBytes-before.allocBytes) / n,
			"heap_live_mb":       float64(heapLiveBytes()) / (1 << 20),
			"flush_p50_ms":       percentile(latencies(fl), 0.50),
			"flush_p99_ms":       median(p99s),
		}
		return out, nil
	}
	batches := float64(sb.flushes)
	m := zeroLayers()
	merge(m, layers)
	merge(m, runtimeLayers(before, after, ops))
	merge(m, map[string]float64{
		"trace.ops_per_s":          median(rates),
		"transport.retries_per_op": float64(sb.phone.Stats().Retries+sb.collector.Stats().Retries-retries0) / n,
		"transport.enqueue_us":     float64(sb.enqueueNs) / 1e3 / n,
		"transport.flush_us":       float64(sb.flushNs) / 1e3 / batches,
		"transport.ack_wait_ms":    float64(sb.ackWaitNs) / 1e6 / batches,
		"transport.receive_us": float64(pm.receiveNs.Load()+cm.receiveNs.Load()-recvNs0) / 1e3 /
			float64(pm.receives.Load()+cm.receives.Load()-recvs0),
		"xmpp.send_batch_us": float64(pm.sendBatchNs.Load()-sendBatchNs0) / 1e3 /
			float64(pm.sendBatches.Load()-sendBatches0),
		"xmpp.wire_bytes_per_op": float64(pm.wireBytes.Load()+cm.wireBytes.Load()-wire0) / n,
	})
	out.metrics = m
	return out, nil
}
