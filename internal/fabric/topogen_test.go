package fabric

import (
	"fmt"
	"testing"
)

// Fat-tree structural invariants, table-driven across arities: node
// counts from the closed forms (5k²/4 switches, k³/4 hosts), uniform
// switch degree k, and wiring validity.
func TestFatTreeInvariants(t *testing.T) {
	for _, k := range []int{2, 4, 6, 8, 16} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			topo, err := FatTree(k)
			if err != nil {
				t.Fatal(err)
			}
			if err := topo.Validate(); err != nil {
				t.Fatal(err)
			}
			if got, want := len(topo.SwitchIDs), 5*k*k/4; got != want {
				t.Errorf("switches = %d, want 5k²/4 = %d", got, want)
			}
			if got, want := len(topo.HostIDs), k*k*k/4; got != want {
				t.Errorf("hosts = %d, want k³/4 = %d", got, want)
			}
			if got, want := len(topo.Links), k*k*k/4+2*(k*k/2)*(k/2); got != want {
				t.Errorf("links = %d, want %d", got, want)
			}
			for _, id := range topo.SwitchIDs {
				if d := len(topo.Nodes[id].Ports); d != k {
					t.Fatalf("switch %s degree %d, want k=%d", topo.Nodes[id].Name, d, k)
				}
			}
			// Role census: (k/2)² cores, k·k/2 aggs and edges.
			counts := map[NodeRole]int{}
			for _, n := range topo.Nodes {
				counts[n.Role]++
			}
			if counts[RoleCore] != k*k/4 || counts[RoleAgg] != k*k/2 || counts[RoleEdge] != k*k/2 {
				t.Errorf("role census %v, want core=%d agg=%d edge=%d",
					counts, k*k/4, k*k/2, k*k/2)
			}
		})
	}
	if _, err := FatTree(3); err == nil {
		t.Error("FatTree(3) accepted an odd arity")
	}
	if _, err := FatTree(0); err == nil {
		t.Error("FatTree(0) accepted")
	}
}

// Leaf-spine structural invariants: leaf degree spines+hostsPerLeaf,
// spine degree leaves, full bipartite core.
func TestLeafSpineInvariants(t *testing.T) {
	cases := []struct{ spines, leaves, hosts int }{
		{1, 1, 1}, {2, 4, 8}, {4, 16, 16}, {8, 64, 4},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%dx%dx%d", c.spines, c.leaves, c.hosts), func(t *testing.T) {
			topo, err := LeafSpine(c.spines, c.leaves, c.hosts)
			if err != nil {
				t.Fatal(err)
			}
			if err := topo.Validate(); err != nil {
				t.Fatal(err)
			}
			if got, want := len(topo.SwitchIDs), c.spines+c.leaves; got != want {
				t.Errorf("switches = %d, want %d", got, want)
			}
			if got, want := len(topo.HostIDs), c.leaves*c.hosts; got != want {
				t.Errorf("hosts = %d, want %d", got, want)
			}
			for _, n := range topo.Nodes {
				switch n.Role {
				case RoleEdge:
					if len(n.Ports) != c.spines+c.hosts {
						t.Fatalf("leaf %s degree %d, want %d", n.Name, len(n.Ports), c.spines+c.hosts)
					}
				case RoleCore:
					if len(n.Ports) != c.leaves {
						t.Fatalf("spine %s degree %d, want %d", n.Name, len(n.Ports), c.leaves)
					}
				}
			}
		})
	}
	if _, err := LeafSpine(0, 4, 4); err == nil {
		t.Error("LeafSpine(0,4,4) accepted")
	}
}

// BFS path lengths match the analytic expectations: fat-tree hosts are
// 2 (same edge), 4 (same pod, different edge) or 6 (different pod)
// links apart; leaf-spine hosts are 2 (same leaf) or 4 apart.
func TestPathLengths(t *testing.T) {
	ft, err := FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	sameEdge := [2]int{ft.HostIDs[0], ft.HostIDs[1]}
	samePod := [2]int{ft.HostIDs[0], ft.HostIDs[2]} // edge-0-0 vs edge-0-1
	crossPod := [2]int{ft.HostIDs[0], ft.HostIDs[len(ft.HostIDs)-1]}
	if ft.HostEdge(sameEdge[0]) != ft.HostEdge(sameEdge[1]) {
		t.Fatal("host construction order: first two hosts should share an edge")
	}
	if ft.HostEdge(samePod[0]) == ft.HostEdge(samePod[1]) ||
		ft.Nodes[ft.HostEdge(samePod[0])].Pod != ft.Nodes[ft.HostEdge(samePod[1])].Pod {
		t.Fatal("host construction order: hosts 0 and 2 should be same pod, different edge")
	}
	for _, c := range []struct {
		name string
		pair [2]int
		want int
	}{
		{"same-edge", sameEdge, 2},
		{"same-pod", samePod, 4},
		{"cross-pod", crossPod, 6},
	} {
		if got := ft.PathLen(c.pair[0], c.pair[1]); got != c.want {
			t.Errorf("fat-tree %s distance = %d, want %d", c.name, got, c.want)
		}
	}

	ls, err := LeafSpine(4, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := ls.PathLen(ls.HostIDs[0], ls.HostIDs[1]); got != 2 {
		t.Errorf("leaf-spine same-leaf distance = %d, want 2", got)
	}
	if got := ls.PathLen(ls.HostIDs[0], ls.HostIDs[len(ls.HostIDs)-1]); got != 4 {
		t.Errorf("leaf-spine cross-leaf distance = %d, want 4", got)
	}
}

// Every analytic route is a real path: consecutive nodes adjacent,
// length matches the BFS distance (routes are shortest paths), and the
// ECMP hash explores more than one path between far-apart hosts.
func TestRouteValidity(t *testing.T) {
	topos := []*Topology{}
	if ft, err := FatTree(4); err == nil {
		topos = append(topos, ft)
	}
	if ls, err := LeafSpine(3, 6, 2); err == nil {
		topos = append(topos, ls)
	}
	for _, topo := range topos {
		t.Run(topo.Kind, func(t *testing.T) {
			hosts := topo.HostIDs
			distinctPaths := map[string]bool{}
			for i := 0; i < len(hosts); i += 3 {
				for j := 1; j < len(hosts); j += 5 {
					src, dst := hosts[i], hosts[(i+j)%len(hosts)]
					if src == dst {
						continue
					}
					for h := uint64(0); h < 8; h++ {
						path, ok := topo.RouteInto(nil, src, dst, h)
						if !ok {
							t.Fatalf("no route %s -> %s (h=%d)",
								topo.Nodes[src].Name, topo.Nodes[dst].Name, h)
						}
						if path[0] != src || path[len(path)-1] != dst {
							t.Fatalf("route endpoints %v, want %d..%d", path, src, dst)
						}
						for n := 1; n < len(path); n++ {
							if topo.PortTo(path[n-1], path[n]) < 0 {
								t.Fatalf("route %v hops across non-adjacent %s -> %s", path,
									topo.Nodes[path[n-1]].Name, topo.Nodes[path[n]].Name)
							}
						}
						if want := topo.PathLen(src, dst); len(path)-1 != want {
							t.Fatalf("route %s->%s length %d links, BFS says %d",
								topo.Nodes[src].Name, topo.Nodes[dst].Name, len(path)-1, want)
						}
						if len(path) > 3 { // beyond the shared edge: ECMP territory
							distinctPaths[fmt.Sprint(path)] = true
						}
					}
				}
			}
			if len(distinctPaths) < 2 {
				t.Errorf("hash ECMP produced %d distinct long paths, want >= 2", len(distinctPaths))
			}
		})
	}
}

// Name lookup and port resolution round-trip.
func TestTopologyLookups(t *testing.T) {
	topo, err := LeafSpine(2, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	leaf, ok := topo.NodeByName("leaf-1")
	if !ok {
		t.Fatal("leaf-1 not found by name")
	}
	spine, ok := topo.NodeByName("spine-0")
	if !ok {
		t.Fatal("spine-0 not found by name")
	}
	p := topo.PortTo(leaf, spine)
	if p < 0 {
		t.Fatal("leaf-1 has no port towards spine-0")
	}
	if peer := topo.Nodes[leaf].Ports[p].Peer; peer != spine {
		t.Fatalf("port %d of leaf-1 faces %d, want %d", p, peer, spine)
	}
	if topo.LinkBetween(leaf, spine) < 0 {
		t.Fatal("no link id between adjacent leaf and spine")
	}
	if topo.PortTo(leaf, topo.HostIDs[0]) >= 0 && topo.HostEdge(topo.HostIDs[0]) != leaf {
		t.Fatal("PortTo claims adjacency the host wiring denies")
	}
	if _, ok := topo.NodeByName("nope"); ok {
		t.Fatal("NodeByName invented a node")
	}
}
