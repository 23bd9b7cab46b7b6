package openflow

import (
	"encoding/binary"
	"fmt"
)

// Controller roles (ofp_controller_role). A connection starts EQUAL;
// ROLE_REQUEST moves it between MASTER, SLAVE and EQUAL, with the
// switch demoting the previous master when a new one takes over.
const (
	RoleNoChange uint32 = 0
	RoleEqual    uint32 = 1
	RoleMaster   uint32 = 2
	RoleSlave    uint32 = 3
)

// RoleName renders a role constant for logs and errors.
func RoleName(role uint32) string {
	switch role {
	case RoleNoChange:
		return "nochange"
	case RoleEqual:
		return "equal"
	case RoleMaster:
		return "master"
	case RoleSlave:
		return "slave"
	}
	return fmt.Sprintf("role(%d)", role)
}

// Role-request failed codes (ofp_role_request_failed_code).
const (
	RoleRequestFailedStale   uint16 = 0
	RoleRequestFailedUnsup   uint16 = 1
	RoleRequestFailedBadRole uint16 = 2
)

// Bad-request code sent to a SLAVE controller attempting a
// state-changing message (OFPBRC_IS_SLAVE).
const BadRequestIsSlave uint16 = 10

// roleBodyLen is the ROLE_REQUEST/ROLE_REPLY body: role(4) + pad(4) +
// generation_id(8).
const roleBodyLen = 16

func appendRole(b []byte, typ uint8, xid, role uint32, gen uint64) ([]byte, error) {
	start := len(b)
	b, p := begin(b, roleBodyLen)
	binary.BigEndian.PutUint32(p[0:4], role)
	binary.BigEndian.PutUint64(p[8:16], gen)
	return finish(b, start, typ, xid)
}

func unmarshalRoleBody(body []byte) (role uint32, gen uint64, err error) {
	if len(body) < roleBodyLen {
		return 0, 0, fmt.Errorf("openflow: truncated role message")
	}
	return binary.BigEndian.Uint32(body[0:4]), binary.BigEndian.Uint64(body[8:16]), nil
}

// RoleRequest asks the switch to change (or report, with RoleNoChange)
// this connection's controller role. GenerationID is a monotonically
// increasing master election epoch: the switch rejects MASTER/SLAVE
// requests whose generation id is behind the highest it has seen.
type RoleRequest struct {
	xid
	Role         uint32
	GenerationID uint64
}

// MsgType implements Message.
func (*RoleRequest) MsgType() uint8 { return TypeRoleRequest }

// AppendTo implements Message.
func (m *RoleRequest) AppendTo(b []byte) ([]byte, error) {
	return appendRole(b, TypeRoleRequest, m.Xid, m.Role, m.GenerationID)
}

// Marshal implements Message.
func (m *RoleRequest) Marshal() ([]byte, error) { return m.AppendTo(nil) }

func (m *RoleRequest) unmarshalBody(body []byte) (err error) {
	m.Role, m.GenerationID, err = unmarshalRoleBody(body)
	return err
}

// RoleReply reports the connection's role after a RoleRequest.
type RoleReply struct {
	xid
	Role         uint32
	GenerationID uint64
}

// MsgType implements Message.
func (*RoleReply) MsgType() uint8 { return TypeRoleReply }

// AppendTo implements Message.
func (m *RoleReply) AppendTo(b []byte) ([]byte, error) {
	return appendRole(b, TypeRoleReply, m.Xid, m.Role, m.GenerationID)
}

// Marshal implements Message.
func (m *RoleReply) Marshal() ([]byte, error) { return m.AppendTo(nil) }

func (m *RoleReply) unmarshalBody(body []byte) (err error) {
	m.Role, m.GenerationID, err = unmarshalRoleBody(body)
	return err
}

// AsyncConfig is the per-connection asynchronous-message filter
// (ofp_async_config): one reason bitmask per async message type, with
// slot 0 applying while the controller is MASTER or EQUAL and slot 1
// while it is SLAVE. Bit n of a mask enables delivery for reason n.
type AsyncConfig struct {
	PacketInMask    [2]uint32
	PortStatusMask  [2]uint32
	FlowRemovedMask [2]uint32
}

// DefaultAsyncConfig returns the OpenFlow 1.3 defaults: masters and
// equals receive every async message; slaves receive only port-status.
func DefaultAsyncConfig() AsyncConfig {
	all := uint32(1)<<0 | 1<<1 | 1<<2 | 1<<3
	return AsyncConfig{
		PacketInMask:    [2]uint32{all, 0},
		PortStatusMask:  [2]uint32{all, all},
		FlowRemovedMask: [2]uint32{all, 0},
	}
}

// Wants reports whether a connection holding role should receive the
// async message msgType with the given reason code under this config.
func (c *AsyncConfig) Wants(role uint32, msgType uint8, reason uint8) bool {
	slot := 0
	if role == RoleSlave {
		slot = 1
	}
	var mask uint32
	switch msgType {
	case TypePacketIn:
		mask = c.PacketInMask[slot]
	case TypePortStatus:
		mask = c.PortStatusMask[slot]
	case TypeFlowRemoved:
		mask = c.FlowRemovedMask[slot]
	default:
		return true // not an async type; never filtered
	}
	return mask&(1<<reason) != 0
}

// asyncBodyLen is three [2]uint32 mask pairs.
const asyncBodyLen = 24

func appendAsync(b []byte, typ uint8, xid uint32, c AsyncConfig) ([]byte, error) {
	start := len(b)
	b, p := begin(b, asyncBodyLen)
	binary.BigEndian.PutUint32(p[0:4], c.PacketInMask[0])
	binary.BigEndian.PutUint32(p[4:8], c.PacketInMask[1])
	binary.BigEndian.PutUint32(p[8:12], c.PortStatusMask[0])
	binary.BigEndian.PutUint32(p[12:16], c.PortStatusMask[1])
	binary.BigEndian.PutUint32(p[16:20], c.FlowRemovedMask[0])
	binary.BigEndian.PutUint32(p[20:24], c.FlowRemovedMask[1])
	return finish(b, start, typ, xid)
}

func unmarshalAsyncBody(body []byte) (AsyncConfig, error) {
	var c AsyncConfig
	if len(body) < asyncBodyLen {
		return c, fmt.Errorf("openflow: truncated async config")
	}
	c.PacketInMask[0] = binary.BigEndian.Uint32(body[0:4])
	c.PacketInMask[1] = binary.BigEndian.Uint32(body[4:8])
	c.PortStatusMask[0] = binary.BigEndian.Uint32(body[8:12])
	c.PortStatusMask[1] = binary.BigEndian.Uint32(body[12:16])
	c.FlowRemovedMask[0] = binary.BigEndian.Uint32(body[16:20])
	c.FlowRemovedMask[1] = binary.BigEndian.Uint32(body[20:24])
	return c, nil
}

// SetAsync replaces the connection's asynchronous-message filter.
type SetAsync struct {
	xid
	AsyncConfig
}

// MsgType implements Message.
func (*SetAsync) MsgType() uint8 { return TypeSetAsync }

// AppendTo implements Message.
func (m *SetAsync) AppendTo(b []byte) ([]byte, error) {
	return appendAsync(b, TypeSetAsync, m.Xid, m.AsyncConfig)
}

// Marshal implements Message.
func (m *SetAsync) Marshal() ([]byte, error) { return m.AppendTo(nil) }

func (m *SetAsync) unmarshalBody(body []byte) (err error) {
	m.AsyncConfig, err = unmarshalAsyncBody(body)
	return err
}

// GetAsyncRequest asks for the connection's current async filter.
type GetAsyncRequest struct{ xid }

// MsgType implements Message.
func (*GetAsyncRequest) MsgType() uint8 { return TypeGetAsyncRequest }

// AppendTo implements Message.
func (m *GetAsyncRequest) AppendTo(b []byte) ([]byte, error) {
	return appendData(b, TypeGetAsyncRequest, m.Xid, nil)
}

// Marshal implements Message.
func (m *GetAsyncRequest) Marshal() ([]byte, error) { return m.AppendTo(nil) }

func (m *GetAsyncRequest) unmarshalBody(body []byte) error { return nil }

// GetAsyncReply reports the connection's async filter.
type GetAsyncReply struct {
	xid
	AsyncConfig
}

// MsgType implements Message.
func (*GetAsyncReply) MsgType() uint8 { return TypeGetAsyncReply }

// AppendTo implements Message.
func (m *GetAsyncReply) AppendTo(b []byte) ([]byte, error) {
	return appendAsync(b, TypeGetAsyncReply, m.Xid, m.AsyncConfig)
}

// Marshal implements Message.
func (m *GetAsyncReply) Marshal() ([]byte, error) { return m.AppendTo(nil) }

func (m *GetAsyncReply) unmarshalBody(body []byte) (err error) {
	m.AsyncConfig, err = unmarshalAsyncBody(body)
	return err
}
