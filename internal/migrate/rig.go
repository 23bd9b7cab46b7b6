package migrate

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/harmless-sdn/harmless/internal/controlplane"
	"github.com/harmless-sdn/harmless/internal/fabric"
	"github.com/harmless-sdn/harmless/internal/harmless"
	"github.com/harmless-sdn/harmless/internal/legacy"
	"github.com/harmless-sdn/harmless/internal/mgmt"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/sim"
)

// Traffic rides UDP between paired hosts on these ports.
const (
	trafficSrcPort = 49000
	trafficDstPort = 49001
)

// opTimeout bounds blocking control-plane operations (role requests,
// barriers) performed inside virtual-time callbacks. The datapath is
// quiescent while they block, so this is a wall-clock safety net, not
// simulation time.
const opTimeout = 10 * time.Second

// switchRig is one live legacy switch under migration: the emulated
// device with its vendor CLI, a netem trunk to the (future) server,
// one host per paired access port, and — once its wave deploys — a
// harmless.Manager-built S4 with a master/slave controller pair.
type switchRig struct {
	index int
	spec  SwitchSpec
	sw    *legacy.Switch

	driver mgmt.Driver
	trunk  *netem.Link
	links  []*netem.Link
	hosts  []*fabric.Host // index p-1 for access port p; nil if unpaired

	mgr  *harmless.Manager
	ctrl *controlplane.Pair // master/slave controller pair; nil when none is up

	deployed    bool
	serverAlive bool
	flapped     bool   // trunk administratively down by an in-flight flap
	preConfig   string // running config snapshotted before the wave

	// Traffic counters, read by the executor's conservation check.
	sent     uint64
	received uint64
	sendErrs uint64
	// deadTrunkRx counts frames the dead server absorbed after a
	// serverDown fault (flood copies, not host traffic).
	deadTrunkRx uint64
}

// trunkPort is the legacy port number cabled to the server.
func (r *switchRig) trunkPort() int { return r.spec.Ports }

// hostMAC and hostIP address host p (1-based access port) of rig idx.
func hostMAC(idx, p int) pkt.MAC { return pkt.MAC{0x02, 0xaa, byte(idx), 0, 0, byte(p)} }
func hostIP(idx, p int) pkt.IPv4 { return pkt.IPv4{10, 1, byte(idx), byte(p)} }

// newSwitchRig builds the pre-migration state: a legacy switch in its
// factory configuration, CLI management session established, hosts
// attached and ARP-seeded. Hosts pair up (1,2), (3,4), ...; with an
// odd access port count the last port is migrated but carries no
// traffic.
func newSwitchRig(eng *sim.Engine, idx int, spec SwitchSpec) (*switchRig, error) {
	r := &switchRig{
		index: idx,
		spec:  spec,
		sw:    legacy.NewSwitch(spec.Name, spec.Ports, legacy.WithClock(eng.Clock())),
	}
	cli := legacy.NewCLIServer(r.sw, legacy.DialectCiscoish)
	clientSide, serverSide := net.Pipe()
	go cli.ServeConn(serverSide) //nolint:errcheck
	driver, err := mgmt.NewDriver(clientSide)
	if err != nil {
		return nil, fmt.Errorf("migrate: %s: cli session: %w", spec.Name, err)
	}
	r.driver = driver

	r.trunk = netem.NewLink(netem.LinkConfig{Name: spec.Name + "-trunk"})
	r.sw.AttachPort(r.trunkPort(), r.trunk.A())

	nPaired := (spec.Ports - 1) / 2 * 2
	r.hosts = make([]*fabric.Host, spec.Ports-1)
	for p := 1; p <= nPaired; p++ {
		l := netem.NewLink(netem.LinkConfig{Name: fmt.Sprintf("%s-p%d", spec.Name, p)})
		r.links = append(r.links, l)
		r.sw.AttachPort(p, l.A())
		h := fabric.NewHost(fmt.Sprintf("%s-h%d", spec.Name, p), hostMAC(idx, p), hostIP(idx, p), l.B())
		h.SetClock(eng.Clock())
		h.HandleUDP(trafficDstPort, func(fabric.UDPMessage) []byte {
			r.received++
			return nil
		})
		r.hosts[p-1] = h
	}
	// Seed static ARP between partners, both directions: resolution
	// must never block the event loop or inject broadcast traffic.
	for p := 1; p <= nPaired; p += 2 {
		a, b := r.hosts[p-1], r.hosts[p]
		a.AddStaticARP(b.IP, b.MAC)
		b.AddStaticARP(a.IP, a.MAC)
	}
	return r, nil
}

// tick sends one traffic round: every paired host sends one datagram
// to its partner. Links are synchronous, so all deliveries (and the
// received-counter increments) complete before tick returns.
func (r *switchRig) tick(payload []byte) {
	for p := 1; p+1 <= len(r.hosts); p += 2 {
		a, b := r.hosts[p-1], r.hosts[p]
		if a == nil || b == nil {
			continue
		}
		if err := a.SendUDP(b.IP, trafficSrcPort, trafficDstPort, payload); err != nil {
			r.sendErrs++
		} else {
			r.sent++
		}
		if err := b.SendUDP(a.IP, trafficSrcPort, trafficDstPort, payload); err != nil {
			r.sendErrs++
		} else {
			r.sent++
		}
	}
}

// deploy migrates the whole switch to HARMLESS-S4: snapshot the
// pre-wave config, drive the manager (discover -> tag -> build S4 ->
// attach trunk), bring up a master/slave controller pair, and install
// proactive per-host flows on SS_2 behind a barrier. It runs inside a
// single virtual-time callback, so no traffic interleaves with the
// reconfiguration — the wave is atomic in virtual time.
func (r *switchRig) deploy(clock netem.Clock) error {
	pre, err := r.driver.RunningConfig()
	if err != nil {
		return fmt.Errorf("migrate: %s: pre-wave snapshot: %w", r.spec.Name, err)
	}
	r.preConfig = pre

	cpCfg := controlplane.Config{EchoInterval: -1, Clock: clock}
	r.mgr = harmless.NewManager(r.driver, nil, harmless.ManagerConfig{
		DatapathID:   0x53340000 + uint64(r.index),
		ControlPlane: cpCfg,
	})
	mPipeA, mPipeB := net.Pipe()
	sPipeA, sPipeB := net.Pipe()
	_, err = r.mgr.Deploy(r.trunk.B(), []controlplane.Endpoint{{Conn: mPipeA}, {Conn: sPipeA}})
	if err != nil {
		mPipeB.Close()
		sPipeB.Close()
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if r.ctrl, err = controlplane.ConnectPair(ctx, mPipeB, sPipeB, cpCfg); err != nil {
		return fmt.Errorf("migrate: %s: controller pair: %w", r.spec.Name, err)
	}
	// Proactive forwarding: one dst-MAC flow per host, installed over
	// the wire through the master and barriered before any traffic
	// tick can reach SS_2. No reactive packet-in path is involved, so
	// the first post-migration frame already has a matching flow.
	for p := 1; p <= len(r.hosts); p++ {
		if r.hosts[p-1] == nil {
			continue
		}
		fm := &openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Priority: 100,
			Match:    *new(openflow.Match).WithEthDst(hostMAC(r.index, p)),
			Instructions: []openflow.Instruction{
				&openflow.InstrApplyActions{Actions: []openflow.Action{
					&openflow.ActionOutput{Port: uint32(p), MaxLen: 0xffff},
				}},
			},
		}
		if err := r.ctrl.Master.FlowMod(fm); err != nil {
			return fmt.Errorf("migrate: %s: flow for port %d: %w", r.spec.Name, p, err)
		}
	}
	if err := r.ctrl.Master.AwaitBarrier(ctx); err != nil {
		return fmt.Errorf("migrate: %s: barrier: %w", r.spec.Name, err)
	}
	r.deployed = true
	r.serverAlive = true
	return nil
}

// killServer simulates the wave's commodity server dying: frames the
// legacy switch sends up the trunk disappear into a counter, and both
// controller channels drop. The management plane (CLI) is unaffected —
// that is what rollback runs over.
func (r *switchRig) killServer() {
	r.serverAlive = false
	r.trunk.B().SetReceiver(func([]byte) { r.deadTrunkRx++ })
	r.dropControllers()
}

// dropControllers abandons the controller sessions, if any are up.
func (r *switchRig) dropControllers() {
	if r.ctrl != nil {
		// The error is dropped: the OF transports are abandoned (dead
		// server, or a rollback that restoredExactly verifies byte for
		// byte), so a close error changes nothing.
		r.ctrl.Close()
		r.ctrl = nil
	}
}

// failover is the PR 5 path: the master channel dies, the slave
// promotes with a bumped generation and proves ownership with a
// barrier. Runs inside the fault's virtual-time callback.
func (r *switchRig) failover() error {
	if r.ctrl == nil {
		return fmt.Errorf("migrate: %s: no controller pair to fail over", r.spec.Name)
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if err := r.ctrl.Failover(ctx); err != nil {
		return fmt.Errorf("migrate: %s: %w", r.spec.Name, err)
	}
	return nil
}

// healthy reports whether the migrated switch can carry traffic: the
// server is alive and the trunk port is administratively up (checked
// through the management plane, as a real campaign monitor would).
func (r *switchRig) healthy() (bool, string) {
	if !r.serverAlive {
		return false, "server down"
	}
	statuses, err := r.driver.InterfaceStatuses()
	if err != nil {
		return false, fmt.Sprintf("status query failed: %v", err)
	}
	for _, st := range statuses {
		if st.Port == r.trunkPort() && st.Status == "disabled" {
			return false, "trunk disabled"
		}
	}
	return true, ""
}

// conforms checks the committed wave against its plan through the
// management plane: every migrated port is an access port in its
// per-port VLAN and the trunk is in trunk mode.
func (r *switchRig) conforms() (bool, string) {
	plan := r.mgr.Plan()
	if plan == nil {
		return false, "no plan"
	}
	statuses, err := r.driver.InterfaceStatuses()
	if err != nil {
		return false, fmt.Sprintf("status query failed: %v", err)
	}
	byPort := make(map[int]mgmt.InterfaceStatus, len(statuses))
	for _, st := range statuses {
		byPort[st.Port] = st
	}
	for _, p := range plan.MigratedPorts() {
		st, ok := byPort[p]
		if !ok {
			return false, fmt.Sprintf("port %d missing from status", p)
		}
		if st.Mode != "access" || st.VLAN != fmt.Sprint(plan.VLANForPort[p]) {
			return false, fmt.Sprintf("port %d is %s/%s, want access/%d", p, st.Mode, st.VLAN, plan.VLANForPort[p])
		}
	}
	if st, ok := byPort[plan.TrunkPort]; !ok || st.Mode != "trunk" {
		return false, fmt.Sprintf("trunk port %d not in trunk mode", plan.TrunkPort)
	}
	return true, ""
}

// rollback returns the switch to its pre-wave legacy configuration.
// Restoration is verified separately with restoredExactly — a trunk
// still administratively down from an in-flight flap would spoil the
// comparison until the flap ends.
func (r *switchRig) rollback() error {
	r.dropControllers()
	if r.mgr != nil {
		if err := r.mgr.Rollback(); err != nil {
			return err
		}
	}
	r.deployed = false
	return nil
}

// restoredExactly compares the running config against the pre-wave
// snapshot byte for byte (the CLI renders configs deterministically, so
// string equality is a faithful restoration proof).
func (r *switchRig) restoredExactly() (bool, error) {
	post, err := r.driver.RunningConfig()
	if err != nil {
		return false, fmt.Errorf("migrate: %s: post-rollback snapshot: %w", r.spec.Name, err)
	}
	return post == r.preConfig, nil
}

// close tears the rig down regardless of errors; the returned error
// aggregates transport and driver close failures.
func (r *switchRig) close() error {
	var errs []error
	if r.ctrl != nil {
		errs = append(errs, r.ctrl.Close())
	}
	if r.mgr != nil && r.mgr.S4() != nil {
		r.mgr.S4().Stop()
	}
	if r.driver != nil {
		errs = append(errs, r.driver.Close())
	}
	for _, l := range r.links {
		l.Close()
	}
	if r.trunk != nil {
		r.trunk.Close()
	}
	return errors.Join(errs...)
}
