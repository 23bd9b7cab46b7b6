package apps

import (
	"math/bits"

	"github.com/harmless-sdn/harmless/internal/controller"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// Backend is one load-balanced server.
type Backend struct {
	IP   pkt.IPv4
	MAC  pkt.MAC
	Port uint32 // switch port the backend is reachable through
}

// LoadBalancer implements demo use case (a): "equally distribute
// ingress web traffic between multiple backends based on matching of
// the source IP address". Clients address a virtual IP; the app
// partitions the client source-address space across the backends with
// masked ipv4_src matches (for power-of-two backend counts, as in the
// demo), falling back to an OpenFlow SELECT group otherwise. Reverse
// traffic is rewritten back to the virtual address, and ARP for the
// VIP is answered by the controller.
type LoadBalancer struct {
	controller.BaseApp
	// Table is the flow table this app owns.
	Table uint8
	// VIP and VMAC are the virtual service address.
	VIP  pkt.IPv4
	VMAC pkt.MAC
	// ServicePort is the TCP port being balanced (e.g. 80).
	ServicePort uint16
	// Backends receive the traffic.
	Backends []Backend
	// GroupID used when falling back to a SELECT group.
	GroupID uint32
}

// Name implements controller.App.
func (lb *LoadBalancer) Name() string { return "loadbalancer" }

// usesSourcePartitioning reports whether the source-IP scheme applies.
func (lb *LoadBalancer) usesSourcePartitioning() bool {
	n := len(lb.Backends)
	return n > 0 && bits.OnesCount(uint(n)) == 1
}

// SwitchConnected installs the virtual-service flows.
func (lb *LoadBalancer) SwitchConnected(sw *controller.SwitchHandle) {
	if len(lb.Backends) == 0 {
		return
	}
	if lb.usesSourcePartitioning() {
		lb.installSourcePartitioned(sw)
	} else {
		lb.installSelectGroup(sw)
	}
	lb.installReverse(sw)
	lb.installARPIntercept(sw)
}

// installSourcePartitioned matches clients by the low bits of their
// source address: backend i serves sources with ip_src & (n-1) == i.
func (lb *LoadBalancer) installSourcePartitioned(sw *controller.SwitchHandle) {
	n := len(lb.Backends)
	mask := pkt.IPv4{0, 0, 0, byte(n - 1)}
	for i, b := range lb.Backends {
		match := openflow.Match{}
		match.WithEthType(pkt.EtherTypeIPv4).
			WithIPProto(pkt.IPProtoTCP).
			WithIPv4Dst(lb.VIP).
			WithTCPDst(lb.ServicePort).
			WithIPv4SrcMasked(pkt.IPv4{0, 0, 0, byte(i)}, mask)
		_ = sw.InstallFlow(lb.Table, 300, match,
			&openflow.InstrApplyActions{Actions: lb.rewriteTo(b)})
	}
}

// installSelectGroup uses an OpenFlow SELECT group for non-power-of-
// two backend counts.
func (lb *LoadBalancer) installSelectGroup(sw *controller.SwitchHandle) {
	var buckets []openflow.Bucket
	for _, b := range lb.Backends {
		buckets = append(buckets, openflow.Bucket{
			Weight: 1, WatchPort: openflow.PortAny, WatchGroup: openflow.GroupAny,
			Actions: lb.rewriteTo(b),
		})
	}
	_ = sw.Send(&openflow.GroupMod{
		Command: openflow.GroupAdd, GroupType: openflow.GroupTypeSelect,
		GroupID: lb.GroupID, Buckets: buckets,
	})
	match := openflow.Match{}
	match.WithEthType(pkt.EtherTypeIPv4).
		WithIPProto(pkt.IPProtoTCP).
		WithIPv4Dst(lb.VIP).
		WithTCPDst(lb.ServicePort)
	_ = sw.InstallFlow(lb.Table, 300, match,
		&openflow.InstrApplyActions{Actions: []openflow.Action{&openflow.ActionGroup{GroupID: lb.GroupID}}})
}

// rewriteTo produces the DNAT action list towards a backend.
func (lb *LoadBalancer) rewriteTo(b Backend) []openflow.Action {
	return []openflow.Action{
		&openflow.ActionSetField{OXM: openflow.OXM{Field: openflow.OXMEthDst, Value: append([]byte{}, b.MAC[:]...)}},
		&openflow.ActionSetField{OXM: openflow.OXM{Field: openflow.OXMIPv4Dst, Value: append([]byte{}, b.IP[:]...)}},
		&openflow.ActionOutput{Port: b.Port, MaxLen: 0xffff},
	}
}

// installReverse restores the virtual address on backend responses and
// hands them to the next table (the learning app) for delivery.
func (lb *LoadBalancer) installReverse(sw *controller.SwitchHandle) {
	for _, b := range lb.Backends {
		match := openflow.Match{}
		match.WithEthType(pkt.EtherTypeIPv4).
			WithIPProto(pkt.IPProtoTCP).
			WithIPv4Src(b.IP).
			WithTCPSrc(lb.ServicePort)
		_ = sw.InstallFlow(lb.Table, 300, match,
			&openflow.InstrApplyActions{Actions: []openflow.Action{
				&openflow.ActionSetField{OXM: openflow.OXM{Field: openflow.OXMIPv4Src, Value: append([]byte{}, lb.VIP[:]...)}},
				&openflow.ActionSetField{OXM: openflow.OXM{Field: openflow.OXMEthSrc, Value: append([]byte{}, lb.VMAC[:]...)}},
			}},
			&openflow.InstrGotoTable{TableID: lb.Table + 1},
		)
	}
}

// installARPIntercept sends ARP requests for the VIP to the controller.
func (lb *LoadBalancer) installARPIntercept(sw *controller.SwitchHandle) {
	match := openflow.Match{}
	match.WithEthType(pkt.EtherTypeARP).WithARPOp(pkt.ARPRequest).WithARPTPA(lb.VIP)
	_ = sw.InstallFlow(lb.Table, 400, match,
		&openflow.InstrApplyActions{Actions: []openflow.Action{
			&openflow.ActionOutput{Port: openflow.PortController, MaxLen: 0xffff},
		}})
}

// PacketIn answers VIP ARP requests.
func (lb *LoadBalancer) PacketIn(sw *controller.SwitchHandle, pi *openflow.PacketIn) {
	if pi.TableID != lb.Table {
		return
	}
	inPort, ok := pi.InPort()
	if !ok {
		return
	}
	p := pkt.DecodeEthernet(pi.Data)
	arp := p.ARP()
	if arp == nil || arp.Op != pkt.ARPRequest || arp.TargetIP != lb.VIP {
		return
	}
	reply, err := pkt.Serialize(
		&pkt.Ethernet{Src: lb.VMAC, Dst: arp.SenderHW, EtherType: pkt.EtherTypeARP},
		&pkt.ARP{
			Op:       pkt.ARPReply,
			SenderHW: lb.VMAC, SenderIP: lb.VIP,
			TargetHW: arp.SenderHW, TargetIP: arp.SenderIP,
		},
	)
	if err != nil {
		return
	}
	_ = sw.PacketOut(openflow.PortController, reply,
		&openflow.ActionOutput{Port: inPort, MaxLen: 0xffff})
}
