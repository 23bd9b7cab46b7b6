package fabric

// Fleet-scale topology generators: the fat-tree and leaf-spine
// fabrics a HARMLESS migration campaign actually runs against. The
// output is an abstract wiring plan — nodes, links, port indices —
// consumed two ways: the flow-level fleet simulator walks it
// analytically (RouteInto/NextHop, hash-based ECMP), and the
// packet-level harness instantiates one softswitch per switch node
// over netem links. Construction is fully deterministic: same parameters, same
// node ids, names, port numbering and link order.

import (
	"fmt"
)

// NodeRole classifies a topology node.
type NodeRole uint8

// Roles. Leaf-spine maps leaves to RoleEdge and spines to RoleCore.
const (
	RoleHost NodeRole = iota
	RoleEdge          // ToR / leaf
	RoleAgg           // fat-tree aggregation
	RoleCore          // fat-tree core / leaf-spine spine
)

// String renders the role.
func (r NodeRole) String() string {
	switch r {
	case RoleHost:
		return "host"
	case RoleEdge:
		return "edge"
	case RoleAgg:
		return "agg"
	case RoleCore:
		return "core"
	}
	return fmt.Sprintf("role(%d)", uint8(r))
}

// TopoPort is one port of a node: index in the node's Ports slice,
// wired to a specific port of a peer node over one link.
type TopoPort struct {
	Peer     int // peer node id
	PeerPort int // port index on the peer
	Link     int // link id
}

// TopoLink is one full-duplex link of the plan.
type TopoLink struct {
	ID           int
	A, B         int // node ids
	APort, BPort int // port indices on each side
}

// TopoNode is one node of the plan.
type TopoNode struct {
	ID    int
	Role  NodeRole
	Name  string
	Pod   int // fat-tree pod, -1 where not applicable
	Ports []TopoPort
}

// Topology is a generated fabric wiring plan.
type Topology struct {
	Kind  string // "fattree" or "leafspine"
	Nodes []TopoNode
	Links []TopoLink

	HostIDs   []int // node ids with RoleHost, in construction order
	SwitchIDs []int // every non-host node id, in construction order

	// generator parameters for analytic routing
	k            int // fat-tree arity
	spines       int
	leaves       int
	hostsPerLeaf int

	byName map[string]int
	// portIdx maps (node<<32|peer) to the node's port index towards
	// peer, for O(1) hop resolution on the fleet-sim hot path.
	portIdx map[uint64]int32
}

// addNode appends a node and returns its id.
func (t *Topology) addNode(role NodeRole, pod int, name string) int {
	id := len(t.Nodes)
	t.Nodes = append(t.Nodes, TopoNode{ID: id, Role: role, Name: name, Pod: pod})
	t.byName[name] = id
	if role == RoleHost {
		t.HostIDs = append(t.HostIDs, id)
	} else {
		t.SwitchIDs = append(t.SwitchIDs, id)
	}
	return id
}

// connect wires a<->b with a fresh link, appending one port to each.
func (t *Topology) connect(a, b int) {
	if a == b {
		panic("fabric: self-loop in topology generator")
	}
	id := len(t.Links)
	ap, bp := len(t.Nodes[a].Ports), len(t.Nodes[b].Ports)
	t.Links = append(t.Links, TopoLink{ID: id, A: a, B: b, APort: ap, BPort: bp})
	t.Nodes[a].Ports = append(t.Nodes[a].Ports, TopoPort{Peer: b, PeerPort: bp, Link: id})
	t.Nodes[b].Ports = append(t.Nodes[b].Ports, TopoPort{Peer: a, PeerPort: ap, Link: id})
	t.portIdx[uint64(a)<<32|uint64(uint32(b))] = int32(ap)
	t.portIdx[uint64(b)<<32|uint64(uint32(a))] = int32(bp)
}

func newTopology(kind string) *Topology {
	return &Topology{
		Kind:    kind,
		byName:  make(map[string]int),
		portIdx: make(map[uint64]int32),
	}
}

// FatTree generates the canonical k-ary fat-tree (Al-Fares et al.):
// k pods of k/2 edge and k/2 aggregation switches, (k/2)^2 cores, and
// k/2 hosts per edge switch — 5k²/4 switches, k³/4 hosts, every
// switch using exactly k ports. k must be even and >= 2.
func FatTree(k int) (*Topology, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("fabric: fat-tree arity k=%d must be even and >= 2", k)
	}
	t := newTopology("fattree")
	t.k = k
	half := k / 2

	cores := make([]int, half*half)
	for c := range cores {
		cores[c] = t.addNode(RoleCore, -1, fmt.Sprintf("core-%d", c))
	}
	aggs := make([][]int, k)  // [pod][i]
	edges := make([][]int, k) // [pod][i]
	for p := 0; p < k; p++ {
		aggs[p] = make([]int, half)
		edges[p] = make([]int, half)
		for i := 0; i < half; i++ {
			aggs[p][i] = t.addNode(RoleAgg, p, fmt.Sprintf("agg-%d-%d", p, i))
		}
		for i := 0; i < half; i++ {
			edges[p][i] = t.addNode(RoleEdge, p, fmt.Sprintf("edge-%d-%d", p, i))
		}
	}
	// Edge -> agg full mesh within each pod (edge ports 0..k/2-1 face
	// aggs, agg ports fill with one per edge).
	for p := 0; p < k; p++ {
		for _, e := range edges[p] {
			for _, a := range aggs[p] {
				t.connect(e, a)
			}
		}
	}
	// Agg i of every pod connects to core group i (cores i*k/2 ..
	// i*k/2 + k/2 - 1); each core ends with one port per pod.
	for p := 0; p < k; p++ {
		for i := 0; i < half; i++ {
			for j := 0; j < half; j++ {
				t.connect(aggs[p][i], cores[i*half+j])
			}
		}
	}
	// Hosts last, so edge ports k/2..k-1 face hosts.
	for p := 0; p < k; p++ {
		for i := 0; i < half; i++ {
			for h := 0; h < half; h++ {
				host := t.addNode(RoleHost, p, fmt.Sprintf("host-%d-%d-%d", p, i, h))
				t.connect(host, edges[p][i])
			}
		}
	}
	return t, nil
}

// LeafSpine generates a two-tier leaf-spine fabric: every leaf wired
// to every spine, hostsPerLeaf hosts per leaf. Spines take RoleCore,
// leaves RoleEdge.
func LeafSpine(spines, leaves, hostsPerLeaf int) (*Topology, error) {
	if spines < 1 || leaves < 1 || hostsPerLeaf < 1 {
		return nil, fmt.Errorf("fabric: leaf-spine needs spines, leaves, hostsPerLeaf >= 1 (got %d/%d/%d)",
			spines, leaves, hostsPerLeaf)
	}
	t := newTopology("leafspine")
	t.spines, t.leaves, t.hostsPerLeaf = spines, leaves, hostsPerLeaf
	sp := make([]int, spines)
	for i := range sp {
		sp[i] = t.addNode(RoleCore, -1, fmt.Sprintf("spine-%d", i))
	}
	lf := make([]int, leaves)
	for i := range lf {
		lf[i] = t.addNode(RoleEdge, -1, fmt.Sprintf("leaf-%d", i))
	}
	// Leaf ports 0..spines-1 face spines.
	for _, l := range lf {
		for _, s := range sp {
			t.connect(l, s)
		}
	}
	for i, l := range lf {
		for h := 0; h < hostsPerLeaf; h++ {
			host := t.addNode(RoleHost, -1, fmt.Sprintf("host-%d-%d", i, h))
			t.connect(host, l)
		}
	}
	return t, nil
}

// NodeByName resolves a node name (fault schedules target by name).
func (t *Topology) NodeByName(name string) (int, bool) {
	id, ok := t.byName[name]
	return id, ok
}

// PortTo returns the port index on `from` facing `to`, or -1 when the
// nodes are not adjacent.
func (t *Topology) PortTo(from, to int) int {
	if p, ok := t.portIdx[uint64(from)<<32|uint64(uint32(to))]; ok {
		return int(p)
	}
	return -1
}

// LinkBetween returns the link id joining a and b, or -1.
func (t *Topology) LinkBetween(a, b int) int {
	if p := t.PortTo(a, b); p >= 0 {
		return t.Nodes[a].Ports[p].Link
	}
	return -1
}

// HostEdge returns the switch a host hangs off.
func (t *Topology) HostEdge(host int) int {
	return t.Nodes[host].Ports[0].Peer
}

// RouteChoices returns how many distinct equal-cost paths RouteInto
// can pick between two distinct-edge hosts — the ECMP width the fleet
// simulator retries across after a fault.
func (t *Topology) RouteChoices() int {
	switch t.Kind {
	case "leafspine":
		return t.spines
	case "fattree":
		half := t.k / 2
		return half * half // inter-pod; same-pod paths are a subset
	}
	return 1
}

// NextHop returns the neighbor the switch sw forwards towards dstHost,
// with h selecting among equal-cost uphill choices (downhill hops are
// fully determined by the destination). ok is false when sw cannot
// reach dstHost in this topology.
func (t *Topology) NextHop(sw, dstHost int, h uint64) (int, bool) {
	dstEdge := t.HostEdge(dstHost)
	if sw == dstEdge {
		return dstHost, true
	}
	n := &t.Nodes[sw]
	switch t.Kind {
	case "leafspine":
		switch n.Role {
		case RoleEdge: // up: any spine (leaf ports 0..spines-1)
			return n.Ports[int(h%uint64(t.spines))].Peer, true
		case RoleCore: // down: the destination leaf
			return dstEdge, true
		}
	case "fattree":
		half := t.k / 2
		dst := &t.Nodes[dstEdge]
		switch n.Role {
		case RoleEdge: // up: agg i of the pod (edge ports 0..k/2-1)
			return n.Ports[int(h%uint64(half))].Peer, true
		case RoleAgg:
			if n.Pod == dst.Pod { // down to the destination edge
				return dstEdge, true
			}
			// up: one of this agg's k/2 cores (agg ports k/2..k-1)
			return n.Ports[half+int((h/uint64(half))%uint64(half))].Peer, true
		case RoleCore:
			// down: the agg of the destination pod this core attaches
			// to — core ports are one per pod, in pod order.
			return n.Ports[dst.Pod].Peer, true
		}
	}
	return 0, false
}

// RouteInto returns the node path from srcHost to dstHost (hosts
// included) in the caller's slice, reusing its capacity — the fleet
// simulator's arrival hot path calls it allocation-free — with h
// selecting deterministically among the equal-cost choices. ok is
// false when no analytic route exists.
func (t *Topology) RouteInto(path []int, srcHost, dstHost int, h uint64) ([]int, bool) {
	path = append(path[:0], srcHost)
	if srcHost == dstHost {
		return path, true
	}
	cur := t.HostEdge(srcHost)
	for {
		path = append(path, cur)
		if len(path) > 8 { // analytic routes are <= 7 nodes; guard loops
			return path, false
		}
		next, ok := t.NextHop(cur, dstHost, h)
		if !ok {
			return path, false
		}
		if next == dstHost {
			return append(path, dstHost), true
		}
		cur = next
	}
}
