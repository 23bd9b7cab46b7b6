package fabric

import (
	"fmt"
	"io"
	"net"
	"time"

	"github.com/harmless-sdn/harmless/internal/controller"
	"github.com/harmless-sdn/harmless/internal/controlplane"
	"github.com/harmless-sdn/harmless/internal/harmless"
	"github.com/harmless-sdn/harmless/internal/legacy"
	"github.com/harmless-sdn/harmless/internal/mgmt"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// Deployment is a fully assembled HARMLESS testbed: the Fig. 1
// topology with an arbitrary number of hosts.
//
//	host[i] --- legacy switch ---(trunk)--- SS_1 ===patch=== SS_2 --- controller
type Deployment struct {
	Legacy    *legacy.Switch
	CLI       *legacy.CLIServer
	Manager   *harmless.Manager
	S4        *harmless.S4
	Ctrl      *controller.Controller
	Hosts     map[int]*Host // keyed by legacy access port
	Links     []*netem.Link
	TrunkLink *netem.Link

	closers []io.Closer // management session and the controller pipe's switch end

	// The in-process controller's attach: handle and attachErr are set
	// before attached closes (nil when there is no such controller).
	attached  chan struct{}
	handle    *controller.SwitchHandle
	attachErr error
}

// DeployConfig parameterizes BuildDeployment.
type DeployConfig struct {
	// NumPorts on the legacy switch (trunk is the highest port).
	NumPorts int
	// HostPorts: access ports that get an emulated host (default: all
	// access ports). Host on port p gets IP 10.0.0.p and a stable MAC.
	HostPorts []int
	// AccessPorts passed to the manager (nil = all but trunk).
	AccessPorts []int
	// Apps to run on the controller.
	Apps []controller.App
	// Dialect of the legacy switch CLI.
	Dialect legacy.Dialect
	// LinkConfig template for the host and trunk links (Name is
	// overridden per link).
	LinkConfig netem.LinkConfig
	// SweepInterval for SS_2 flow expiry (0 = disabled).
	SweepInterval time.Duration
	// DatapathID for SS_2 (0 = package default). Must be unique when
	// several deployments share one controller.
	DatapathID uint64
	// Hostname for the legacy switch (default "legacy-sw").
	Hostname string
	// Controller reuses an existing controller instead of creating
	// one (multi-switch deployments); Apps is ignored when set.
	Controller *controller.Controller
	// Controllers adds external control-plane endpoints (dialed
	// addresses or established transports) on top of — or instead of —
	// the in-process controller.
	Controllers []controlplane.Endpoint
	// ControlPlane tunes SS_2's controller channels and the in-process
	// controller's session at their other end (clock, keepalive,
	// backoff, logger). Zero = defaults.
	ControlPlane controlplane.Config
}

// HostMAC returns the deterministic MAC used for the host on an access
// port.
func HostMAC(port int) pkt.MAC {
	return pkt.MAC{0x02, 0xaa, 0, 0, 0, byte(port)}
}

// HostIP returns the deterministic IP used for the host on an access
// port.
func HostIP(port int) pkt.IPv4 { return pkt.IPv4{10, 0, 0, byte(port)} }

// BuildDeployment assembles the complete testbed and runs the manager
// end to end (CLI-driver configuration, S4 bring-up, controller
// connection over an in-memory pipe). On error everything built so far
// is closed again.
func BuildDeployment(cfg DeployConfig) (_ *Deployment, err error) {
	if cfg.NumPorts < 2 {
		return nil, fmt.Errorf("fabric: need >= 2 ports")
	}
	d := &Deployment{Hosts: make(map[int]*Host)}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	hostname := cfg.Hostname
	if hostname == "" {
		hostname = "legacy-sw"
	}
	d.Legacy = legacy.NewSwitch(hostname, cfg.NumPorts)
	d.CLI = legacy.NewCLIServer(d.Legacy, cfg.Dialect)

	trunkPort := cfg.NumPorts

	// Hosts.
	hostPorts := cfg.HostPorts
	if hostPorts == nil {
		for p := 1; p < cfg.NumPorts; p++ {
			hostPorts = append(hostPorts, p)
		}
	}
	for _, p := range hostPorts {
		if p == trunkPort {
			return nil, fmt.Errorf("fabric: host port %d is the trunk", p)
		}
		lc := cfg.LinkConfig
		lc.Name = fmt.Sprintf("host%d", p)
		link := netem.NewLink(lc)
		d.Links = append(d.Links, link)
		d.Legacy.AttachPort(p, link.A())
		d.Hosts[p] = NewHost(fmt.Sprintf("h%d", p), HostMAC(p), HostIP(p), link.B())
	}

	// Trunk link between the legacy switch and SS_1.
	lc := cfg.LinkConfig
	lc.Name = "trunk"
	d.TrunkLink = netem.NewLink(lc)
	d.Legacy.AttachPort(trunkPort, d.TrunkLink.A())

	// Management: CLI over an in-memory TCP-like pipe.
	mgmtClient, mgmtServer := net.Pipe()
	d.closers = append(d.closers, mgmtClient)
	go func() {
		_ = d.CLI.ServeConn(mgmtServer)
		mgmtServer.Close()
	}()
	driver, err := mgmt.NewDriver(mgmtClient)
	if err != nil {
		return nil, fmt.Errorf("fabric: mgmt driver: %w", err)
	}

	// Controller: fresh, or shared across deployments.
	if cfg.Controller != nil {
		d.Ctrl = cfg.Controller
	} else {
		d.Ctrl = controller.New(cfg.Apps, cfg.ControlPlane)
	}
	endpoints := append([]controlplane.Endpoint(nil), cfg.Controllers...)
	if len(cfg.Apps) > 0 || cfg.Controller != nil {
		swSide, ctrlSide := net.Pipe()
		endpoints = append(endpoints, controlplane.Endpoint{Conn: swSide})
		d.closers = append(d.closers, swSide)
		// The attach (handshake, then every app's SwitchConnected) runs
		// alongside the manager's deploy; WaitConnected collects it.
		d.attached = make(chan struct{})
		go func() {
			d.handle, d.attachErr = d.Ctrl.AttachConn(ctrlSide)
			close(d.attached)
		}()
	}

	// Manager deploy.
	d.Manager = harmless.NewManager(driver, nil, harmless.ManagerConfig{
		AccessPorts:   cfg.AccessPorts,
		SweepInterval: cfg.SweepInterval,
		ControlPlane:  cfg.ControlPlane,
		DatapathID:    cfg.DatapathID,
	})
	if d.S4, err = d.Manager.Deploy(d.TrunkLink.B(), endpoints); err != nil {
		return nil, err
	}
	return d, nil
}

// Close releases the controller channel, the management session and
// all links.
func (d *Deployment) Close() {
	if d.S4 != nil {
		d.S4.Stop()
	}
	for _, c := range d.closers {
		// The error is dropped: these are in-memory pipe ends, and closing
		// one twice or after its peer, the only failure, means it is closed.
		c.Close()
	}
	for _, l := range d.Links {
		l.Close()
	}
	if d.TrunkLink != nil {
		d.TrunkLink.Close()
	}
}

// WaitConnected blocks until the in-process controller has attached to
// SS_2, its apps' SwitchConnected hooks have run, and a barrier has
// confirmed the flows they sent are installed. It returns the attach
// error if there was one. The timeout runs on the wall clock.
func (d *Deployment) WaitConnected(timeout time.Duration) error {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-d.attached:
	case <-t.C:
		return fmt.Errorf("fabric: controller never attached to the switch: %w", ErrTimeout)
	}
	if d.attachErr != nil {
		return d.attachErr
	}
	return d.handle.Barrier()
}
