package harmless_test

// End-to-end telemetry exactness over the full HARMLESS deployment:
// the acceptance check that the in-process collector's exported
// byte/packet totals equal SS_1's datapath counters after real mixed
// traffic (ARP, ICMP pings, UDP bursts) has crossed the migrated
// switch — through trunk ingress, both patch hops, and the flow cache.

import (
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/controller"
	"github.com/harmless-sdn/harmless/internal/controller/apps"
	"github.com/harmless-sdn/harmless/internal/fabric"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/softswitch"
	"github.com/harmless-sdn/harmless/internal/telemetry"
)

// rxTotals sums a switch's per-port ingress counters — every frame
// the dispatch path accepted, which is exactly the set telemetry must
// account (the test traffic contains no unparseable frames).
func rxTotals(sw *softswitch.Switch) (pkts, bytes uint64) {
	for _, no := range sw.PortNumbers() {
		c := sw.PortCounters(no)
		pkts += c.RxPackets.Load()
		bytes += c.RxBytes.Load()
	}
	return
}

func TestTelemetryEndToEndExactness(t *testing.T) {
	dep, err := fabric.BuildDeployment(fabric.DeployConfig{
		NumPorts: 4,
		Apps:     []controller.App{&apps.Learning{Table: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if err := dep.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	tab := telemetry.NewTable(telemetry.Config{Shards: 2})
	col := telemetry.NewCollector()
	agg := telemetry.NewAggregator(tab, col, time.Hour)
	dep.S4.SS1.SetTelemetry(tab)
	// Anything that crossed SS_1 before the attach (controller
	// bring-up) is outside telemetry's window; measure deltas.
	basePkts, baseBytes := rxTotals(dep.S4.SS1)

	// Mixed traffic: ARP resolution + ICMP echo both ways, then UDP
	// bursts per-frame and batched. Links are synchronous, so when
	// these calls return the datapath is quiesced.
	for i := 0; i < 3; i++ {
		if err := dep.Hosts[1].Ping(dep.Hosts[2].IP, 2*time.Second); err != nil {
			t.Fatalf("ping h1->h2: %v", err)
		}
	}
	if err := dep.Hosts[2].Ping(dep.Hosts[3].IP, 2*time.Second); err != nil {
		t.Fatalf("ping h2->h3: %v", err)
	}
	mkUDP := func(sport uint16) []byte {
		pl := pkt.Payload("telemetry-e2e")
		f, err := pkt.Serialize(
			&pkt.Ethernet{Src: fabric.HostMAC(1), Dst: fabric.HostMAC(2), EtherType: pkt.EtherTypeIPv4},
			&pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoUDP, Src: fabric.HostIP(1), Dst: fabric.HostIP(2)},
			&pkt.UDP{SrcPort: sport, DstPort: 9},
			&pl,
		)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for i := 0; i < 20; i++ {
		dep.Hosts[1].SendRaw(mkUDP(uint16(7000 + i%5)))
	}
	vec := make([][]byte, 16)
	for i := range vec {
		vec[i] = mkUDP(uint16(7000 + i%5))
	}
	dep.Hosts[1].SendRawBatch(vec)

	// Flush everything and compare against the datapath's own books.
	tab.FlushAll(time.Now().UnixNano())
	agg.Flush()
	rxPkts, rxBytes := rxTotals(dep.S4.SS1)
	wantPkts, wantBytes := rxPkts-basePkts, rxBytes-baseBytes
	gotPkts, gotBytes := col.Totals()
	if gotPkts != wantPkts || gotBytes != wantBytes {
		t.Fatalf("collector totals %d pkts / %d bytes; SS_1 ingress saw %d / %d",
			gotPkts, gotBytes, wantPkts, wantBytes)
	}
	if lost := tab.Counters().RecordsLost.Load(); lost != 0 {
		t.Fatalf("%d export records lost on the drain ring", lost)
	}
	// The UDP conversation must be visible as a top talker with the
	// right 5-tuple.
	var found bool
	for _, f := range col.Flows() {
		if f.Key.Proto == pkt.IPProtoUDP && f.Key.L4Dst == 9 && f.Key.IPSrc == fabric.HostIP(1) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("UDP burst flow missing from collector")
	}
}
