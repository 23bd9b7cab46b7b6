// Command flowtop is the operator's top-talkers view of the telemetry
// plane: an IPFIX-style UDP collector that decodes the records
// harmlessd (or trafficgen) exports and periodically renders
// the biggest conversations — what `nethogs`/`nfdump -s` give you
// against a hardware switch, pointed at the softswitch instead.
//
//	# terminal 1: the deployment, exporting flow records
//	harmlessd -telemetry-export 127.0.0.1:4739
//
//	# terminal 2: watch the talkers
//	flowtop -listen 127.0.0.1:4739
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"github.com/harmless-sdn/harmless/internal/telemetry"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:4739", "UDP address to receive IPFIX-style export on")
	top := flag.Int("top", 10, "conversations to show")
	interval := flag.Duration("interval", 2*time.Second, "refresh interval")
	count := flag.Int("count", 0, "exit after this many refreshes (0 = run until interrupted)")
	jsonOut := flag.Bool("json", false, "emit each refresh as JSON instead of a table")
	flag.Parse()

	pc, err := net.ListenPacket("udp", *listen)
	if err != nil {
		fatal("listen: %v", err)
	}
	defer pc.Close()
	col := telemetry.NewCollector()
	go col.ServeUDP(pc) //nolint:errcheck // loop ends when pc closes
	fmt.Printf("flowtop: collecting on udp://%s (refresh %s)\n", pc.LocalAddr(), *interval)

	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for n := 0; *count == 0 || n < *count; n++ {
		<-tick.C
		render(col, *top, *jsonOut)
	}
}

func render(col *telemetry.Collector, top int, jsonOut bool) {
	msgs, records, samples, errs := col.Stats()
	pkts, bytes := col.Totals()
	flows := col.Top(top)
	if jsonOut {
		out := struct {
			Messages uint64                    `json:"messages"`
			Records  uint64                    `json:"records"`
			Samples  uint64                    `json:"samples"`
			Errors   uint64                    `json:"decode_errors"`
			Packets  uint64                    `json:"packets"`
			Bytes    uint64                    `json:"bytes"`
			Top      []telemetry.CollectedFlow `json:"top"`
		}{msgs, records, samples, errs, pkts, bytes, flows}
		json.NewEncoder(os.Stdout).Encode(out) //nolint:errcheck
		return
	}
	fmt.Printf("—— %s | msgs=%d records=%d samples=%d errs=%d | total %d pkts / %d bytes ——\n",
		time.Now().Format("15:04:05"), msgs, records, samples, errs, pkts, bytes)
	if len(flows) == 0 {
		fmt.Println("  (no flows yet)")
		return
	}
	fmt.Printf("  %-3s %-52s %10s %12s %10s %8s\n", "#", "flow (forward direction)", "packets", "bytes", "rev-pkts", "end")
	for i, f := range flows {
		fmt.Printf("  %-3d %-52s %10d %12d %10d %8s\n",
			i+1, f.Key, f.Packets+f.RevPackets, f.Bytes+f.RevBytes, f.RevPackets, endReason(f.EndReason))
	}
}

func endReason(r uint8) string {
	switch r {
	case telemetry.EndIdle:
		return "idle"
	case telemetry.EndActive:
		return "active"
	case telemetry.EndForced:
		return "forced"
	}
	return "-"
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "flowtop: "+format+"\n", args...)
	os.Exit(1)
}
