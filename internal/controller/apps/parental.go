package apps

import (
	"strings"
	"sync"

	"github.com/harmless-sdn/harmless/internal/controller"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// ParentalControl implements demo use case (c): "selectively deny
// access to specific users to certain web pages on-the-fly". Two
// mechanisms compose:
//
//  1. DNS interception: every DNS query goes to the controller. A
//     query from a restricted user for a blocked domain is answered
//     with NXDOMAIN by the controller itself; anything else is
//     released toward the uplink.
//  2. IP fallback: when a blocked (user, site-IP) pair is configured
//     (covering users with hardcoded DNS), a drop flow is installed.
//
// Policy changes (Block/Unblock) take effect immediately: DNS decisions
// are per-query, and IP rules are added/deleted on the fly.
type ParentalControl struct {
	controller.BaseApp
	// Table is the filter table this app owns.
	Table uint8
	// NextTable receives non-DNS traffic.
	NextTable uint8
	// UplinkPort is where the resolver/Internet is reachable.
	UplinkPort uint32

	mu        sync.Mutex
	domains   map[pkt.IPv4]map[string]bool // user -> blocked domain suffixes
	ipBlocks  map[pkt.IPv4]map[pkt.IPv4]bool
	limits    map[pkt.IPv4]uint32 // user -> pkt/s rate limit
	meterIDs  map[pkt.IPv4]uint32
	nextMeter uint32
	switches  []*controller.SwitchHandle
	nxCount   uint64
}

// Name implements controller.App.
func (pc *ParentalControl) Name() string { return "parentalcontrol" }

// BlockDomain denies user access to domain (suffix match, so
// "example.net" also blocks "www.example.net").
func (pc *ParentalControl) BlockDomain(user pkt.IPv4, domain string) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.domains == nil {
		pc.domains = make(map[pkt.IPv4]map[string]bool)
	}
	if pc.domains[user] == nil {
		pc.domains[user] = make(map[string]bool)
	}
	pc.domains[user][strings.ToLower(domain)] = true
}

// UnblockDomain lifts a domain restriction.
func (pc *ParentalControl) UnblockDomain(user pkt.IPv4, domain string) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	delete(pc.domains[user], strings.ToLower(domain))
}

// BlockIP denies user access to a literal site address, installing
// drop flows on all connected switches.
func (pc *ParentalControl) BlockIP(user, site pkt.IPv4) {
	pc.mu.Lock()
	if pc.ipBlocks == nil {
		pc.ipBlocks = make(map[pkt.IPv4]map[pkt.IPv4]bool)
	}
	if pc.ipBlocks[user] == nil {
		pc.ipBlocks[user] = make(map[pkt.IPv4]bool)
	}
	pc.ipBlocks[user][site] = true
	switches := liveSwitches(&pc.switches)
	pc.mu.Unlock()
	for _, sw := range switches {
		pc.installIPBlock(sw, user, site)
	}
}

// UnblockIP lifts an address restriction.
func (pc *ParentalControl) UnblockIP(user, site pkt.IPv4) {
	pc.mu.Lock()
	delete(pc.ipBlocks[user], site)
	switches := liveSwitches(&pc.switches)
	pc.mu.Unlock()
	for _, sw := range switches {
		match := openflow.Match{}
		match.WithEthType(pkt.EtherTypeIPv4).WithIPv4Src(user).WithIPv4Dst(site)
		_ = sw.FlowMod(&openflow.FlowMod{
			TableID: pc.Table, Command: openflow.FlowDeleteStrict, Priority: 250,
			BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
			Match: match,
		})
	}
}

// RateLimitUser throttles all of a user's IPv4 traffic to the given
// packet rate using an OpenFlow meter (0 removes the limit). This is
// the "fine-tune on the fly" extension: bandwidth policy per user
// without touching the legacy switch.
func (pc *ParentalControl) RateLimitUser(user pkt.IPv4, pktPerSec uint32) {
	pc.mu.Lock()
	if pc.limits == nil {
		pc.limits = make(map[pkt.IPv4]uint32)
		pc.meterIDs = make(map[pkt.IPv4]uint32)
	}
	if pktPerSec == 0 {
		delete(pc.limits, user)
	} else {
		pc.limits[user] = pktPerSec
		if _, ok := pc.meterIDs[user]; !ok {
			pc.nextMeter++
			pc.meterIDs[user] = pc.nextMeter
		}
	}
	meterID := pc.meterIDs[user]
	switches := liveSwitches(&pc.switches)
	pc.mu.Unlock()

	for _, sw := range switches {
		if pktPerSec == 0 {
			pc.removeRateLimit(sw, user, meterID)
		} else {
			pc.installRateLimit(sw, user, meterID, pktPerSec)
		}
	}
}

func (pc *ParentalControl) installRateLimit(sw *controller.SwitchHandle, user pkt.IPv4, meterID, rate uint32) {
	// Add-or-modify the meter (add fails silently if it exists; the
	// modify below converges the rate either way).
	_ = sw.Send(&openflow.MeterMod{
		Command: openflow.MeterAdd, Flags: openflow.MeterFlagPktps, MeterID: meterID,
		Bands: []openflow.MeterBand{{Type: openflow.MeterBandDrop, Rate: rate, BurstSize: rate}},
	})
	_ = sw.Send(&openflow.MeterMod{
		Command: openflow.MeterModify, Flags: openflow.MeterFlagPktps, MeterID: meterID,
		Bands: []openflow.MeterBand{{Type: openflow.MeterBandDrop, Rate: rate, BurstSize: rate}},
	})
	match := openflow.Match{}
	match.WithEthType(pkt.EtherTypeIPv4).WithIPv4Src(user)
	_ = sw.InstallFlow(pc.Table, 200, match,
		&openflow.InstrMeter{MeterID: meterID},
		&openflow.InstrGotoTable{TableID: pc.NextTable},
	)
}

func (pc *ParentalControl) removeRateLimit(sw *controller.SwitchHandle, user pkt.IPv4, meterID uint32) {
	match := openflow.Match{}
	match.WithEthType(pkt.EtherTypeIPv4).WithIPv4Src(user)
	_ = sw.FlowMod(&openflow.FlowMod{
		TableID: pc.Table, Command: openflow.FlowDeleteStrict, Priority: 200,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Match: match,
	})
	_ = sw.Send(&openflow.MeterMod{Command: openflow.MeterDelete, MeterID: meterID})
}

// NXDomainCount returns how many queries have been denied.
func (pc *ParentalControl) NXDomainCount() uint64 {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.nxCount
}

// isBlocked checks the domain policy (suffix match).
func (pc *ParentalControl) isBlocked(user pkt.IPv4, qname string) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	qname = strings.ToLower(qname)
	for suffix := range pc.domains[user] {
		if qname == suffix || strings.HasSuffix(qname, "."+suffix) {
			return true
		}
	}
	return false
}

// SwitchConnected installs the DNS intercept and pass-through.
func (pc *ParentalControl) SwitchConnected(sw *controller.SwitchHandle) {
	pc.mu.Lock()
	pc.switches = append(pc.switches, sw)
	type ipPair struct{ user, site pkt.IPv4 }
	var pairs []ipPair
	for user, sites := range pc.ipBlocks {
		for site := range sites {
			pairs = append(pairs, ipPair{user, site})
		}
	}
	type limit struct {
		user    pkt.IPv4
		meterID uint32
		rate    uint32
	}
	var limits []limit
	for user, rate := range pc.limits {
		limits = append(limits, limit{user, pc.meterIDs[user], rate})
	}
	pc.mu.Unlock()

	// DNS queries (UDP dst 53) to the controller.
	dns := openflow.Match{}
	dns.WithEthType(pkt.EtherTypeIPv4).WithIPProto(pkt.IPProtoUDP).WithUDPDst(53)
	_ = sw.InstallFlow(pc.Table, 300, dns,
		&openflow.InstrApplyActions{Actions: []openflow.Action{
			&openflow.ActionOutput{Port: openflow.PortController, MaxLen: 0xffff},
		}})

	// Everything else continues.
	_ = sw.InstallFlow(pc.Table, 0, openflow.Match{}, &openflow.InstrGotoTable{TableID: pc.NextTable})

	for _, p := range pairs {
		pc.installIPBlock(sw, p.user, p.site)
	}
	for _, l := range limits {
		pc.installRateLimit(sw, l.user, l.meterID, l.rate)
	}
}

func (pc *ParentalControl) installIPBlock(sw *controller.SwitchHandle, user, site pkt.IPv4) {
	match := openflow.Match{}
	match.WithEthType(pkt.EtherTypeIPv4).WithIPv4Src(user).WithIPv4Dst(site)
	_ = sw.InstallFlow(pc.Table, 250, match) // no instructions = drop
}

// PacketIn handles intercepted DNS queries.
func (pc *ParentalControl) PacketIn(sw *controller.SwitchHandle, pi *openflow.PacketIn) {
	if pi.TableID != pc.Table {
		return
	}
	inPort, ok := pi.InPort()
	if !ok {
		return
	}
	p := pkt.DecodeEthernet(pi.Data)
	dns := p.DNS()
	udp := p.UDP()
	ip := p.IPv4()
	if dns == nil || udp == nil || ip == nil || dns.QR || len(dns.Questions) == 0 {
		return
	}
	qname := dns.Questions[0].Name
	if pc.isBlocked(ip.Src, qname) {
		pc.mu.Lock()
		pc.nxCount++
		pc.mu.Unlock()
		reply := pc.buildNXDomain(p, dns)
		if reply != nil {
			_ = sw.PacketOut(openflow.PortController, reply,
				&openflow.ActionOutput{Port: inPort, MaxLen: 0xffff})
		}
		return
	}
	// Allowed: release toward the resolver.
	_ = sw.PacketOut(inPort, pi.Data,
		&openflow.ActionOutput{Port: pc.UplinkPort, MaxLen: 0xffff})
}

// buildNXDomain crafts the spoofed denial answering the query in p.
func (pc *ParentalControl) buildNXDomain(p *pkt.Packet, q *pkt.DNS) []byte {
	eth := p.Ethernet()
	ip := p.IPv4()
	udp := p.UDP()
	resp := &pkt.DNS{
		ID: q.ID, QR: true, AA: true, RA: true, RD: q.RD,
		Rcode:     pkt.DNSRcodeNXDomain,
		Questions: q.Questions,
	}
	frame, err := pkt.Serialize(
		&pkt.Ethernet{Src: eth.Dst, Dst: eth.Src, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoUDP, Src: ip.Dst, Dst: ip.Src},
		&pkt.UDP{SrcPort: udp.DstPort, DstPort: udp.SrcPort},
		resp,
	)
	if err != nil {
		return nil
	}
	return frame
}
