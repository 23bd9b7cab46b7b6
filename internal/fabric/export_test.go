package fabric

import "fmt"

// Count returns the number of frames captured at a point.
func (c *Capture) Count(point string) int { return len(c.At(point)) }

// Churned returns how many short-lived pairs have completed so far.
func (w *HeavyHitterWorkload) Churned() int { return w.churned }

// PathLen returns the BFS hop distance (in links) between two nodes,
// or -1 when disconnected. O(V+E) — a test and validation helper, not
// a hot path.
func (t *Topology) PathLen(a, b int) int {
	if a == b {
		return 0
	}
	dist := make([]int, len(t.Nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[a] = 0
	queue := []int{a}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, p := range t.Nodes[n].Ports {
			if dist[p.Peer] < 0 {
				dist[p.Peer] = dist[n] + 1
				if p.Peer == b {
					return dist[p.Peer]
				}
				queue = append(queue, p.Peer)
			}
		}
	}
	return -1
}

// Validate cross-checks the wiring plan's internal consistency: link
// endpoints exist, port back-references agree, no self-loops, no
// duplicate adjacency. Generators are expected to always produce valid
// plans; tests call this on every generated topology.
func (t *Topology) Validate() error {
	seen := make(map[uint64]bool, len(t.Links))
	for _, l := range t.Links {
		if l.A < 0 || l.A >= len(t.Nodes) || l.B < 0 || l.B >= len(t.Nodes) {
			return fmt.Errorf("link %d endpoints out of range", l.ID)
		}
		if l.A == l.B {
			return fmt.Errorf("link %d is a self-loop on node %d", l.ID, l.A)
		}
		key := uint64(l.A)<<32 | uint64(uint32(l.B))
		if l.A > l.B {
			key = uint64(l.B)<<32 | uint64(uint32(l.A))
		}
		if seen[key] {
			return fmt.Errorf("duplicate link between %d and %d", l.A, l.B)
		}
		seen[key] = true
		pa, pb := t.Nodes[l.A].Ports[l.APort], t.Nodes[l.B].Ports[l.BPort]
		if pa.Peer != l.B || pb.Peer != l.A || pa.Link != l.ID || pb.Link != l.ID ||
			pa.PeerPort != l.BPort || pb.PeerPort != l.APort {
			return fmt.Errorf("link %d port back-references inconsistent", l.ID)
		}
	}
	for _, n := range t.Nodes {
		if n.Role == RoleHost && len(n.Ports) != 1 {
			return fmt.Errorf("host %s has %d ports, want 1", n.Name, len(n.Ports))
		}
	}
	return nil
}
