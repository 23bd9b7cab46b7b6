package snmp

import (
	"fmt"
	"net"
	"sort"
	"sync"
)

// GetFunc produces the current value of a scalar.
type GetFunc func() Value

// SetFunc applies a write to a scalar; return an SNMP error status
// (ErrWrongType, ErrBadValue, ...) wrapped in *SetError to signal
// specific failures, or any other error for ErrGenErr.
type SetFunc func(Value) error

// SetError carries a specific SNMP error-status from a SetFunc.
type SetError struct {
	Status int
	Reason string
}

// Error implements error.
func (e *SetError) Error() string {
	return fmt.Sprintf("snmp: set failed (status %d): %s", e.Status, e.Reason)
}

// mibNode is one registered scalar instance.
type mibNode struct {
	oid OID
	get GetFunc
	set SetFunc
}

// MIB is the ordered collection of objects an Agent serves. Scalars
// (including table cells, which are just scalars with instance-suffixed
// OIDs) are registered at setup time; their values are produced by
// callbacks so reads always observe live device state.
type MIB struct {
	mu    sync.RWMutex
	nodes []*mibNode // sorted by OID
}

// NewMIB returns an empty MIB.
func NewMIB() *MIB { return &MIB{} }

// Register adds a scalar with the given instance OID. A nil set makes
// the object read-only. Registering an existing OID replaces it.
func (m *MIB) Register(oid OID, get GetFunc, set SetFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := &mibNode{oid: oid.Clone(), get: get, set: set}
	i := sort.Search(len(m.nodes), func(i int) bool { return m.nodes[i].oid.Cmp(oid) >= 0 })
	if i < len(m.nodes) && m.nodes[i].oid.Cmp(oid) == 0 {
		m.nodes[i] = n
		return
	}
	m.nodes = append(m.nodes, nil)
	copy(m.nodes[i+1:], m.nodes[i:])
	m.nodes[i] = n
}

// RegisterReadOnly is Register with no setter.
func (m *MIB) RegisterReadOnly(oid OID, get GetFunc) { m.Register(oid, get, nil) }

// lookup finds the node with exactly the given OID.
func (m *MIB) lookup(oid OID) *mibNode {
	m.mu.RLock()
	defer m.mu.RUnlock()
	i := sort.Search(len(m.nodes), func(i int) bool { return m.nodes[i].oid.Cmp(oid) >= 0 })
	if i < len(m.nodes) && m.nodes[i].oid.Cmp(oid) == 0 {
		return m.nodes[i]
	}
	return nil
}

// next finds the first node with OID strictly greater than oid.
func (m *MIB) next(oid OID) *mibNode {
	m.mu.RLock()
	defer m.mu.RUnlock()
	i := sort.Search(len(m.nodes), func(i int) bool { return m.nodes[i].oid.Cmp(oid) > 0 })
	if i < len(m.nodes) {
		return m.nodes[i]
	}
	return nil
}

// Agent serves a MIB over a packet connection using SNMPv2c.
type Agent struct {
	mib       *MIB
	community string
}

// NewAgent creates an agent for the MIB guarded by the given community
// string.
func NewAgent(mib *MIB, community string) *Agent {
	return &Agent{mib: mib, community: community}
}

// ServePacket handles one request datagram and returns the response
// datagram (nil for silently discarded requests, e.g. bad community —
// per SNMP practice, authentication failures are not answered).
func (a *Agent) ServePacket(req []byte) []byte {
	msg, err := Unmarshal(req)
	if err != nil {
		return nil
	}
	if msg.Community != a.community {
		return nil
	}
	resp := a.handle(msg)
	out, err := resp.Marshal()
	if err != nil {
		return nil
	}
	return out
}

// handle computes the response message for a request.
func (a *Agent) handle(msg *Message) *Message {
	resp := &Message{
		Community: msg.Community,
		Type:      PDUResponse,
		RequestID: msg.RequestID,
		VarBinds:  make([]VarBind, 0, len(msg.VarBinds)),
	}
	switch msg.Type {
	case PDUGetRequest:
		for _, vb := range msg.VarBinds {
			if n := a.mib.lookup(vb.OID); n != nil {
				resp.VarBinds = append(resp.VarBinds, VarBind{OID: vb.OID, Value: n.get()})
			} else {
				resp.VarBinds = append(resp.VarBinds, VarBind{OID: vb.OID, Value: NoSuchObject{}})
			}
		}
	case PDUGetNext:
		for _, vb := range msg.VarBinds {
			if n := a.mib.next(vb.OID); n != nil {
				resp.VarBinds = append(resp.VarBinds, VarBind{OID: n.oid, Value: n.get()})
			} else {
				resp.VarBinds = append(resp.VarBinds, VarBind{OID: vb.OID, Value: EndOfMibView{}})
			}
		}
	case PDUSetRequest:
		// Validate all bindings first (SNMP sets are as-if-atomic).
		for i, vb := range msg.VarBinds {
			n := a.mib.lookup(vb.OID)
			if n == nil {
				return errResponse(msg, ErrNoSuchName, i+1)
			}
			if n.set == nil {
				return errResponse(msg, ErrNotWritable, i+1)
			}
		}
		for i, vb := range msg.VarBinds {
			n := a.mib.lookup(vb.OID)
			if err := n.set(vb.Value); err != nil {
				if se, ok := err.(*SetError); ok {
					return errResponse(msg, se.Status, i+1)
				}
				return errResponse(msg, ErrGenErr, i+1)
			}
			resp.VarBinds = append(resp.VarBinds, VarBind{OID: vb.OID, Value: n.get()})
		}
	default:
		return errResponse(msg, ErrGenErr, 0)
	}
	return resp
}

func errResponse(req *Message, status, index int) *Message {
	return &Message{
		Community: req.Community,
		Type:      PDUResponse,
		RequestID: req.RequestID,
		ErrStatus: status,
		ErrIndex:  index,
		VarBinds:  req.VarBinds,
	}
}

// Serve answers requests arriving on pc until the connection is closed
// or a fatal error occurs. It is typically run in its own goroutine:
//
//	pc, _ := net.ListenPacket("udp", "127.0.0.1:0")
//	go agent.Serve(pc)
func (a *Agent) Serve(pc net.PacketConn) error {
	buf := make([]byte, 65535)
	for {
		n, addr, err := pc.ReadFrom(buf)
		if err != nil {
			return err
		}
		if resp := a.ServePacket(buf[:n]); resp != nil {
			if _, err := pc.WriteTo(resp, addr); err != nil {
				return err
			}
		}
	}
}
