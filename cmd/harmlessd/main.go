// Command harmlessd brings up a complete emulated HARMLESS deployment:
// an emulated legacy Ethernet switch with hosts, the HARMLESS-S4 group
// node, and management endpoints on real sockets:
//
//   - the legacy switch's vendor CLI on -cli-listen (telnet-style),
//   - its SNMP agent on -snmp-listen (SNMPv2c, community "public"),
//   - SS_2's OpenFlow channels towards -controllers (comma-separated
//     endpoints, each dialed actively with exponential-backoff redial
//     and served concurrently under OF1.3 role arbitration), and/or a
//     passive listener on -of-listen controllers can connect to; with
//     neither, an in-process learning controller attaches.
//
// With -oneshot the daemon verifies end-to-end connectivity through
// the migrated switch (hosts ping each other), prints the evidence,
// and exits — the demo of the paper in one command.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/harmless-sdn/harmless/internal/controller"
	"github.com/harmless-sdn/harmless/internal/controller/apps"
	"github.com/harmless-sdn/harmless/internal/controlplane"
	"github.com/harmless-sdn/harmless/internal/fabric"
	"github.com/harmless-sdn/harmless/internal/harmless"
	"github.com/harmless-sdn/harmless/internal/legacy"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/snmp"
	ssruntime "github.com/harmless-sdn/harmless/internal/softswitch/runtime"
	"github.com/harmless-sdn/harmless/internal/telemetry"
)

func main() {
	ports := flag.Int("ports", 8, "legacy switch port count (highest port becomes the trunk)")
	dialectName := flag.String("dialect", "ciscoish", "legacy CLI dialect: ciscoish|aristaish")
	cliListen := flag.String("cli-listen", "", "expose the legacy switch CLI on this TCP address (empty = off)")
	snmpListen := flag.String("snmp-listen", "", "expose the legacy switch SNMP agent on this UDP address (empty = off)")
	controllersFlag := flag.String("controllers", "", "comma-separated external OpenFlow controller addresses, e.g. host1:6653,host2:6653 (empty = in-process learning switch)")
	ofListen := flag.String("of-listen", "", "accept OpenFlow controller connections on this TCP address (passive mode, e.g. for ofctl dialing in)")
	oneshot := flag.Bool("oneshot", false, "run the connectivity demo and exit")
	statsEvery := flag.Duration("stats", 10*time.Second, "status print interval (0 = off)")
	asyncLinks := flag.Bool("async-links", false, "queued (async) netem links with vectored rx delivery instead of synchronous in-line calls")
	workers := flag.Int("workers", 0, "poll-mode workers draining SS_1's trunk ingress with RSS flow sharding (0 = deliver inline on the caller thread)")
	telemetryExport := flag.String("telemetry-export", "", "export IPFIX-style flow records to this UDP collector (e.g. the cmd/flowtop listener; empty = no wire export)")
	sampleRate := flag.Int("sample-rate", 64, "sFlow-style 1-in-N packet sampling on the telemetry plane (0 = off)")
	httpListen := flag.String("http", "", "serve the live telemetry endpoints (/flows, /stats) on this address (empty = off)")
	flag.Parse()

	var dialect legacy.Dialect
	switch *dialectName {
	case legacy.DialectCiscoish.String():
		dialect = legacy.DialectCiscoish
	case legacy.DialectAristaish.String():
		dialect = legacy.DialectAristaish
	default:
		fatal("unknown -dialect %q (want %s or %s)", *dialectName, legacy.DialectCiscoish, legacy.DialectAristaish)
	}

	var ctrlAddrs []string
	for _, a := range strings.Split(*controllersFlag, ",") {
		if a = strings.TrimSpace(a); a != "" {
			ctrlAddrs = append(ctrlAddrs, a)
		}
	}

	cfg := fabric.DeployConfig{
		NumPorts:   *ports,
		Dialect:    dialect,
		LinkConfig: netem.LinkConfig{Async: *asyncLinks},
	}
	// Channel lifecycle diagnostics (dial failures, backoff, dead
	// peers) and the in-process controller's (rejected flow-mods, app
	// panics) go to stderr — a daemon silently redialing a typoed
	// controller address forever would be undebuggable.
	cpCfg := controlplane.Config{Logger: log.New(os.Stderr, "harmlessd: ", log.LstdFlags)}
	cfg.ControlPlane = cpCfg
	if len(ctrlAddrs) > 0 || *ofListen != "" {
		cfg.SweepInterval = time.Second
	}
	for _, a := range ctrlAddrs {
		cfg.Controllers = append(cfg.Controllers, controlplane.Endpoint{Addr: a})
	}
	if len(ctrlAddrs) == 0 && *ofListen == "" {
		cfg.Apps = []controller.App{&apps.Learning{Table: 0}}
	}
	d, err := fabric.BuildDeployment(cfg)
	if err != nil {
		fatal("deploy: %v", err)
	}
	defer d.Close()

	if len(ctrlAddrs) > 0 {
		fmt.Printf("harmlessd: SS_2 dialing controllers %v (backoff redial, role arbitration)\n", ctrlAddrs)
	}
	if *ofListen != "" {
		l, err := net.Listen("tcp", *ofListen)
		if err != nil {
			fatal("of-listen: %v", err)
		}
		defer l.Close()
		if d.S4.Agent() == nil {
			d.S4.ConnectControllers(nil, cpCfg, time.Second)
		}
		d.S4.Agent().Listen(l)
		fmt.Printf("harmlessd: SS_2 accepting OpenFlow controllers on %s\n", l.Addr())
	}
	if len(ctrlAddrs) == 0 && *ofListen == "" {
		if err := d.WaitConnected(5 * time.Second); err != nil {
			fatal("in-process controller: %v", err)
		}
		fmt.Println("harmlessd: in-process learning controller attached")
	}

	// Management endpoints.
	if *cliListen != "" {
		l, err := net.Listen("tcp", *cliListen)
		if err != nil {
			fatal("cli listen: %v", err)
		}
		defer l.Close()
		go d.CLI.Serve(l) //nolint:errcheck
		fmt.Printf("harmlessd: legacy CLI (%s) on %s\n", dialect, l.Addr())
	}
	if *snmpListen != "" {
		pc, err := net.ListenPacket("udp", *snmpListen)
		if err != nil {
			fatal("snmp listen: %v", err)
		}
		defer pc.Close()
		mib := snmp.NewMIB()
		legacy.BindMIB(d.Legacy, mib, dialect)
		go snmp.NewAgent(mib, "public").Serve(pc) //nolint:errcheck
		fmt.Printf("harmlessd: SNMP agent on %s (community public)\n", pc.LocalAddr())
	}

	plan := d.Manager.Plan()
	fmt.Printf("harmlessd: migrated %q: trunk=%d ports=%v vlans=%v\n",
		plan.Hostname, plan.TrunkPort, plan.MigratedPorts(), plan.TrunkVLANs())

	// Flow telemetry: attach the telemetry plane to SS_1 (the switch
	// every migrated frame crosses) when any telemetry output — wire
	// export or the HTTP live view — is requested.
	var tel *telemetry.Table
	var agg *telemetry.Aggregator
	telCol := telemetry.NewCollector()
	if *telemetryExport != "" || *httpListen != "" {
		shards := 1
		if *workers > 0 {
			shards = *workers
		}
		tel = telemetry.NewTable(telemetry.Config{
			Shards:     shards,
			SampleRate: *sampleRate,
		})
		// The in-process collector only accumulates when something
		// reads it (the /stats view).
		var exps telemetry.TeeExporter
		if *httpListen != "" {
			exps = append(exps, telCol)
		}
		if *telemetryExport != "" {
			udp, err := telemetry.NewUDPExporter(*telemetryExport)
			if err != nil {
				fatal("telemetry-export: %v", err)
			}
			defer udp.Close()
			exps = append(exps, udp)
			fmt.Printf("harmlessd: exporting flow records to udp://%s (sample 1/%d)\n", *telemetryExport, *sampleRate)
		}
		var exp telemetry.Exporter = exps
		if len(exps) == 1 {
			exp = exps[0]
		}
		agg = telemetry.NewAggregator(tel, exp, time.Second)
		agg.Start()
		defer agg.Stop()
		d.S4.SS1.SetTelemetry(tel)
		// Keep the timers moving even when the datapath is quiet and
		// no worker pool is doing it on its idle path.
		sweep := time.NewTicker(time.Second)
		defer sweep.Stop()
		go func() {
			for range sweep.C {
				tel.Sweep(time.Now().UnixNano())
			}
		}()
		defer func() {
			tel.FlushAll(time.Now().UnixNano())
			agg.Flush()
		}()
	}

	// Poll-mode workers: interpose the RSS-sharded worker pool between
	// the trunk link and SS_1, so trunk rx is dispatched by flow hash
	// to N run-to-completion workers instead of running inline on the
	// link's delivery goroutine.
	var pool *ssruntime.Pool
	if *workers > 0 {
		pool = ssruntime.New(d.S4.SS1, ssruntime.Config{Workers: *workers})
		pool.Start()
		defer pool.Stop()
		trunk := d.TrunkLink.B()
		trunk.SetReceiver(func(frame []byte) { pool.Dispatch(harmless.SS1TrunkPort, frame) })
		trunk.SetBatchReceiver(func(frames [][]byte) { pool.DispatchBatch(harmless.SS1TrunkPort, frames) })
		fmt.Printf("harmlessd: %d poll-mode workers on SS_1 trunk ingress\n", pool.Workers())
	}

	// Live observability endpoints: /flows (top talkers of the live
	// record table) and /stats (telemetry + datapath + worker state).
	if *httpListen != "" {
		l, err := net.Listen("tcp", *httpListen)
		if err != nil {
			fatal("http listen: %v", err)
		}
		defer l.Close()
		mux := telemetry.NewMux(tel, agg, func() map[string]any {
			extra := map[string]any{
				"ss1_cache":  d.S4.SS1.CacheStats().String(),
				"ss1_flows":  d.S4.SS1.CacheLen(),
				"ss2_cache":  d.S4.SS2.CacheStats().String(),
				"packet_ins": d.S4.SS2.PacketIns(),
			}
			pkts, bytes := telCol.Totals()
			extra["exported_totals"] = map[string]uint64{"packets": pkts, "bytes": bytes}
			if pool != nil {
				st := pool.Stats()
				extra["workers"] = map[string]uint64{
					"frames": st.Frames, "bytes": st.Bytes, "batches": st.Batches,
					"rx_drops": st.RxDrops,
				}
			}
			return extra
		})
		srv := &http.Server{Handler: mux}
		go srv.Serve(l) //nolint:errcheck
		defer srv.Close()
		fmt.Printf("harmlessd: telemetry endpoints on http://%s/flows and /stats\n", l.Addr())
	}

	if *oneshot {
		runDemo(d)
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	var tick <-chan time.Time
	if *statsEvery > 0 {
		t := time.NewTicker(*statsEvery)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-sig:
			fmt.Println("harmlessd: shutting down")
			return
		case <-tick:
			printStatus(d)
			printWorkers(pool)
			printTelemetry(tel, agg)
		}
	}
}

// printWorkers renders the pool aggregate plus the per-worker shards,
// so skew across workers (bad sharding, elephant flows) is visible.
func printWorkers(pool *ssruntime.Pool) {
	if pool == nil {
		return
	}
	st := pool.Stats()
	fmt.Printf("status: workers=%d frames=%d bytes=%d batches=%d rxdrop=%d\n",
		pool.Workers(), st.Frames, st.Bytes, st.Batches, st.RxDrops)
	for i := 0; i < pool.Workers(); i++ {
		ws := pool.WorkerStats(i)
		fmt.Printf("status:   worker %d: frames=%d batches=%d rxdrop=%d\n",
			i, ws.Frames, ws.Batches, ws.RxDrops)
	}
}

// printTelemetry renders the telemetry-plane line of the status loop.
func printTelemetry(tel *telemetry.Table, agg *telemetry.Aggregator) {
	if tel == nil {
		return
	}
	as := agg.Stats()
	fmt.Printf("status: telemetry live=%d %s | exported=%d biflows=%d samples=%d msgs=%d errs=%d\n",
		tel.Len(), tel.Counters(),
		as.FlowRecords, as.Biflows, as.Samples, as.Messages, as.ExportErrors)
}

// runDemo proves end-to-end connectivity through the HARMLESS chain.
func runDemo(d *fabric.Deployment) {
	fmt.Println("harmlessd: oneshot demo — pinging across all migrated ports")
	ok := true
	hostPorts := make([]int, 0, len(d.Hosts))
	for p := range d.Hosts {
		hostPorts = append(hostPorts, p)
	}
	sort.Ints(hostPorts)
	for _, a := range hostPorts {
		for _, b := range hostPorts {
			if a >= b {
				continue
			}
			err := d.Hosts[a].Ping(fabric.HostIP(b), 3*time.Second)
			status := "ok"
			if err != nil {
				status = err.Error()
				ok = false
			}
			fmt.Printf("  h%d -> h%d: %s\n", a, b, status)
		}
	}
	printStatus(d)
	if !ok {
		os.Exit(1)
	}
	fmt.Println("harmlessd: demo PASSED — legacy switch is OpenFlow-controlled")
}

func printStatus(d *fabric.Deployment) {
	lookups0, matched0 := d.S4.SS2.Table(0).Stats()
	// async_dropped: events (packet-ins above all) a controller that had
	// stopped reading lost at its channel's send bound.
	var asyncDropped uint64
	if a := d.S4.Agent(); a != nil {
		asyncDropped = a.ChannelSet().Dropped()
	}
	fmt.Printf("status: SS_1 trunk rx=%d tx=%d | SS_2 table0 lookups=%d matched=%d pktins=%d async_dropped=%d drops=%d\n",
		d.S4.SS1.PortCounters(1).RxPackets.Load(),
		d.S4.SS1.PortCounters(1).TxPackets.Load(),
		lookups0, matched0, d.S4.SS2.PacketIns(), asyncDropped, d.S4.SS2.Drops())
	if c1, c2 := d.S4.SS1.CacheStats(), d.S4.SS2.CacheStats(); c1 != nil && c2 != nil {
		fmt.Printf("status: flow cache SS_1 %s (%d flows) | SS_2 %s (%d flows)\n",
			c1, d.S4.SS1.CacheLen(), c2, d.S4.SS2.CacheLen())
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "harmlessd: "+format+"\n", args...)
	os.Exit(1)
}
