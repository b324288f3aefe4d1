package main

import (
	"path/filepath"
	"strconv"
	"testing"

	"pogo/internal/obs"
)

// TestMeteredMessengerKeepsPath runs the switchboard with and without the
// benchmark's messenger wrapper and checks that the program sends the same
// stanzas per flush and the same wire bytes either way: the wrapper must
// keep the endpoint on its batched, traced send path.
func TestMeteredMessengerKeepsPath(t *testing.T) {
	type wire struct{ phoneStanzas, phoneBytes, collStanzas, collBytes, flushes int64 }
	measure := func(wrap bool) (wire, *switchboard) {
		reg := obs.NewRegistry()
		sb, err := openSwitchboard(filepath.Join(t.TempDir(), strconv.FormatBool(wrap)), 3, wrap, reg)
		if err != nil {
			t.Fatal(err)
		}
		defer sb.close()
		for i := 0; i < 5; i++ {
			if _, err := sb.batch(); err != nil {
				t.Fatal(err)
			}
		}
		if sb.mismatches.Load() != 0 || sb.delivered.Load() != sb.sent {
			t.Fatalf("wrap=%v: %d mismatches, %d of %d delivered", wrap, sb.mismatches.Load(), sb.delivered.Load(), sb.sent)
		}
		c := reg.Snapshot().Counters
		return wire{
			phoneStanzas: c[obs.Key("xmpp_stanzas_sent_total", obs.L("node", "phone"))],
			phoneBytes:   c[obs.Key("xmpp_bytes_sent_total", obs.L("node", "phone"))],
			collStanzas:  c[obs.Key("xmpp_stanzas_sent_total", obs.L("node", "collector"))],
			collBytes:    c[obs.Key("xmpp_bytes_sent_total", obs.L("node", "collector"))],
			flushes:      int64(sb.phone.Stats().Flushes),
		}, sb
	}
	bare, _ := measure(false)
	wrapped, sb := measure(true)
	if bare != wrapped {
		t.Fatalf("wrapped run sent %+v, unwrapped %+v", wrapped, bare)
	}
	if bare.phoneStanzas != bare.flushes || bare.collStanzas != bare.flushes {
		t.Fatalf("want one stanza per flush each way: %+v", bare)
	}
	if got := sb.phoneMeter.wireBytes.Load() + sb.collMeter.wireBytes.Load(); got != wrapped.phoneBytes+wrapped.collBytes {
		t.Fatalf("wrapper counted %d wire bytes, XMPP messengers %d", got, wrapped.phoneBytes+wrapped.collBytes)
	}
	if sb.phoneMeter.sendBatches.Load() != wrapped.flushes {
		t.Fatalf("wrapper saw %d SendBatch calls for %d flushes", sb.phoneMeter.sendBatches.Load(), wrapped.flushes)
	}
}
