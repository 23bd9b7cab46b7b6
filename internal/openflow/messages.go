package openflow

import (
	"encoding/binary"
	"fmt"

	"github.com/harmless-sdn/harmless/internal/pkt"
)

// --- Hello / Echo / Barrier -----------------------------------------

// appendData encodes a message whose body is data as it stands: the
// header-only messages (nil) and the echoes.
func appendData(b []byte, typ uint8, xid uint32, data []byte) ([]byte, error) {
	start := len(b)
	b, _ = begin(b, 0)
	return finish(append(b, data...), start, typ, xid)
}

// payload returns the bytes that end a frame as a decoded message keeps
// them: nil when empty, otherwise as they are, spare capacity of the
// frame included (see Conn.Recv) — nothing else lives behind them.
func payload(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}

// Hello opens version negotiation.
type Hello struct{ xid }

// MsgType implements Message.
func (*Hello) MsgType() uint8 { return TypeHello }

// AppendTo implements Message.
func (m *Hello) AppendTo(b []byte) ([]byte, error) { return appendData(b, TypeHello, m.Xid, nil) }

// Marshal implements Message.
func (m *Hello) Marshal() ([]byte, error) { return m.AppendTo(nil) }

func (m *Hello) unmarshalBody(body []byte) error { return nil }

// EchoRequest is a liveness probe; Data is echoed back.
type EchoRequest struct {
	xid
	Data []byte
}

// MsgType implements Message.
func (*EchoRequest) MsgType() uint8 { return TypeEchoRequest }

// AppendTo implements Message.
func (m *EchoRequest) AppendTo(b []byte) ([]byte, error) {
	return appendData(b, TypeEchoRequest, m.Xid, m.Data)
}

// Marshal implements Message.
func (m *EchoRequest) Marshal() ([]byte, error) { return m.AppendTo(nil) }

func (m *EchoRequest) unmarshalBody(body []byte) error {
	m.Data = payload(body)
	return nil
}

// EchoReply answers an EchoRequest with the same data.
type EchoReply struct {
	xid
	Data []byte
}

// MsgType implements Message.
func (*EchoReply) MsgType() uint8 { return TypeEchoReply }

// AppendTo implements Message.
func (m *EchoReply) AppendTo(b []byte) ([]byte, error) {
	return appendData(b, TypeEchoReply, m.Xid, m.Data)
}

// Marshal implements Message.
func (m *EchoReply) Marshal() ([]byte, error) { return m.AppendTo(nil) }

func (m *EchoReply) unmarshalBody(body []byte) error {
	m.Data = payload(body)
	return nil
}

// BarrierRequest asks the switch to finish all preceding operations.
type BarrierRequest struct{ xid }

// MsgType implements Message.
func (*BarrierRequest) MsgType() uint8 { return TypeBarrierRequest }

// AppendTo implements Message.
func (m *BarrierRequest) AppendTo(b []byte) ([]byte, error) {
	return appendData(b, TypeBarrierRequest, m.Xid, nil)
}

// Marshal implements Message.
func (m *BarrierRequest) Marshal() ([]byte, error) { return m.AppendTo(nil) }

func (m *BarrierRequest) unmarshalBody(body []byte) error { return nil }

// BarrierReply acknowledges a BarrierRequest.
type BarrierReply struct{ xid }

// MsgType implements Message.
func (*BarrierReply) MsgType() uint8 { return TypeBarrierReply }

// AppendTo implements Message.
func (m *BarrierReply) AppendTo(b []byte) ([]byte, error) {
	return appendData(b, TypeBarrierReply, m.Xid, nil)
}

// Marshal implements Message.
func (m *BarrierReply) Marshal() ([]byte, error) { return m.AppendTo(nil) }

func (m *BarrierReply) unmarshalBody(body []byte) error { return nil }

// --- Error -----------------------------------------------------------

// Error type codes (subset).
const (
	ErrTypeHelloFailed       uint16 = 0
	ErrTypeBadRequest        uint16 = 1
	ErrTypeBadAction         uint16 = 2
	ErrTypeBadMatch          uint16 = 4
	ErrTypeFlowModFailed     uint16 = 5
	ErrTypeGroupModFailed    uint16 = 6
	ErrTypeRoleRequestFailed uint16 = 11
	ErrTypeMeterModFailed    uint16 = 12
)

// Flow-mod failed codes (subset).
const (
	FlowModFailedUnknown   uint16 = 0
	FlowModFailedTableFull uint16 = 1
	FlowModFailedBadTable  uint16 = 2
	FlowModFailedOverlap   uint16 = 3
)

// Error reports a failure back to the message originator.
type Error struct {
	xid
	ErrType uint16
	Code    uint16
	Data    []byte // first bytes of the offending message
}

// MsgType implements Message.
func (*Error) MsgType() uint8 { return TypeError }

// AppendTo implements Message.
func (m *Error) AppendTo(b []byte) ([]byte, error) {
	start := len(b)
	b, p := begin(b, 4)
	binary.BigEndian.PutUint16(p[0:2], m.ErrType)
	binary.BigEndian.PutUint16(p[2:4], m.Code)
	return finish(append(b, m.Data...), start, TypeError, m.Xid)
}

// Marshal implements Message.
func (m *Error) Marshal() ([]byte, error) { return m.AppendTo(nil) }

func (m *Error) unmarshalBody(body []byte) error {
	if len(body) < 4 {
		return fmt.Errorf("openflow: truncated error body")
	}
	m.ErrType = binary.BigEndian.Uint16(body[0:2])
	m.Code = binary.BigEndian.Uint16(body[2:4])
	m.Data = payload(body[4:])
	return nil
}

// Error implements the error interface so an *Error can flow through
// Go error paths.
func (m *Error) Error() string {
	return fmt.Sprintf("openflow: error type=%d code=%d", m.ErrType, m.Code)
}

// --- Features --------------------------------------------------------

// FeaturesRequest asks the switch for its identity.
type FeaturesRequest struct{ xid }

// MsgType implements Message.
func (*FeaturesRequest) MsgType() uint8 { return TypeFeaturesRequest }

// AppendTo implements Message.
func (m *FeaturesRequest) AppendTo(b []byte) ([]byte, error) {
	return appendData(b, TypeFeaturesRequest, m.Xid, nil)
}

// Marshal implements Message.
func (m *FeaturesRequest) Marshal() ([]byte, error) { return m.AppendTo(nil) }

func (m *FeaturesRequest) unmarshalBody(body []byte) error { return nil }

// Capability bits (ofp_capabilities).
const (
	CapFlowStats  uint32 = 1 << 0
	CapTableStats uint32 = 1 << 1
	CapPortStats  uint32 = 1 << 2
	CapGroupStats uint32 = 1 << 3
)

// FeaturesReply identifies the switch.
type FeaturesReply struct {
	xid
	DatapathID   uint64
	NBuffers     uint32
	NTables      uint8
	AuxiliaryID  uint8
	Capabilities uint32
}

// MsgType implements Message.
func (*FeaturesReply) MsgType() uint8 { return TypeFeaturesReply }

// AppendTo implements Message.
func (m *FeaturesReply) AppendTo(b []byte) ([]byte, error) {
	start := len(b)
	b, p := begin(b, 24)
	binary.BigEndian.PutUint64(p[0:8], m.DatapathID)
	binary.BigEndian.PutUint32(p[8:12], m.NBuffers)
	p[12] = m.NTables
	p[13] = m.AuxiliaryID
	binary.BigEndian.PutUint32(p[16:20], m.Capabilities)
	return finish(b, start, TypeFeaturesReply, m.Xid)
}

// Marshal implements Message.
func (m *FeaturesReply) Marshal() ([]byte, error) { return m.AppendTo(nil) }

func (m *FeaturesReply) unmarshalBody(body []byte) error {
	if len(body) < 24 {
		return fmt.Errorf("openflow: truncated features reply")
	}
	m.DatapathID = binary.BigEndian.Uint64(body[0:8])
	m.NBuffers = binary.BigEndian.Uint32(body[8:12])
	m.NTables = body[12]
	m.AuxiliaryID = body[13]
	m.Capabilities = binary.BigEndian.Uint32(body[16:20])
	return nil
}

// --- FlowMod ---------------------------------------------------------

// Flow-mod commands (ofp_flow_mod_command).
const (
	FlowAdd          uint8 = 0
	FlowModify       uint8 = 1
	FlowModifyStrict uint8 = 2
	FlowDelete       uint8 = 3
	FlowDeleteStrict uint8 = 4
)

// Flow-mod flags.
const (
	FlowFlagSendFlowRem  uint16 = 1 << 0
	FlowFlagCheckOverlap uint16 = 1 << 1
)

// FlowMod installs, modifies or removes flow entries.
type FlowMod struct {
	xid
	Cookie       uint64
	CookieMask   uint64
	TableID      uint8
	Command      uint8
	IdleTimeout  uint16
	HardTimeout  uint16
	Priority     uint16
	BufferID     uint32
	OutPort      uint32
	OutGroup     uint32
	Flags        uint16
	Match        Match
	Instructions []Instruction
}

// MsgType implements Message.
func (*FlowMod) MsgType() uint8 { return TypeFlowMod }

// AppendTo implements Message.
func (m *FlowMod) AppendTo(b []byte) ([]byte, error) {
	start := len(b)
	b, fixed := begin(b, 40)
	binary.BigEndian.PutUint64(fixed[0:8], m.Cookie)
	binary.BigEndian.PutUint64(fixed[8:16], m.CookieMask)
	fixed[16] = m.TableID
	fixed[17] = m.Command
	binary.BigEndian.PutUint16(fixed[18:20], m.IdleTimeout)
	binary.BigEndian.PutUint16(fixed[20:22], m.HardTimeout)
	binary.BigEndian.PutUint16(fixed[22:24], m.Priority)
	binary.BigEndian.PutUint32(fixed[24:28], m.BufferID)
	binary.BigEndian.PutUint32(fixed[28:32], m.OutPort)
	binary.BigEndian.PutUint32(fixed[32:36], m.OutGroup)
	binary.BigEndian.PutUint16(fixed[36:38], m.Flags)
	b, err := m.Match.appendTo(b)
	if err != nil {
		return nil, err
	}
	if b, err = appendInstructions(b, m.Instructions); err != nil {
		return nil, err
	}
	return finish(b, start, TypeFlowMod, m.Xid)
}

// Marshal implements Message.
func (m *FlowMod) Marshal() ([]byte, error) { return m.AppendTo(nil) }

func (m *FlowMod) unmarshalBody(body []byte) error {
	if len(body) < 40 {
		return fmt.Errorf("openflow: truncated flow mod")
	}
	m.Cookie = binary.BigEndian.Uint64(body[0:8])
	m.CookieMask = binary.BigEndian.Uint64(body[8:16])
	m.TableID = body[16]
	m.Command = body[17]
	m.IdleTimeout = binary.BigEndian.Uint16(body[18:20])
	m.HardTimeout = binary.BigEndian.Uint16(body[20:22])
	m.Priority = binary.BigEndian.Uint16(body[22:24])
	m.BufferID = binary.BigEndian.Uint32(body[24:28])
	m.OutPort = binary.BigEndian.Uint32(body[28:32])
	m.OutGroup = binary.BigEndian.Uint32(body[32:36])
	m.Flags = binary.BigEndian.Uint16(body[36:38])
	consumed, err := m.Match.unmarshal(body[40:])
	if err != nil {
		return err
	}
	instrs, err := unmarshalInstructions(body[40+consumed:])
	if err != nil {
		return err
	}
	m.Instructions = instrs
	return nil
}

// String renders the flow mod in ovs-ofctl style.
func (m *FlowMod) String() string {
	return fmt.Sprintf("flow_mod cmd=%d table=%d priority=%d %s -> %s",
		m.Command, m.TableID, m.Priority, m.Match.String(), instructionsString(m.Instructions))
}

// --- PacketIn / PacketOut -------------------------------------------

// Packet-in reasons.
const (
	PacketInReasonNoMatch uint8 = 0
	PacketInReasonAction  uint8 = 1
)

// PacketIn delivers a packet to the controller.
type PacketIn struct {
	xid
	BufferID uint32
	TotalLen uint16
	Reason   uint8
	TableID  uint8
	Cookie   uint64
	Match    Match
	Data     []byte
}

// MsgType implements Message.
func (*PacketIn) MsgType() uint8 { return TypePacketIn }

// InPort extracts the ingress port from the packet-in match (the spec
// guarantees OXM_OF_IN_PORT is present).
func (m *PacketIn) InPort() (uint32, bool) {
	if o := m.Match.Get(OXMInPort); o != nil && len(o.Value) == 4 {
		return binary.BigEndian.Uint32(o.Value), true
	}
	return 0, false
}

// AppendTo implements Message.
func (m *PacketIn) AppendTo(b []byte) ([]byte, error) {
	start := len(b)
	b, fixed := begin(b, 16)
	binary.BigEndian.PutUint32(fixed[0:4], m.BufferID)
	binary.BigEndian.PutUint16(fixed[4:6], m.TotalLen)
	fixed[6] = m.Reason
	fixed[7] = m.TableID
	binary.BigEndian.PutUint64(fixed[8:16], m.Cookie)
	b, err := m.Match.appendTo(b)
	if err != nil {
		return nil, err
	}
	b = append(b, 0, 0) // spec: 2 bytes padding before data
	return finish(append(b, m.Data...), start, TypePacketIn, m.Xid)
}

// Marshal implements Message.
func (m *PacketIn) Marshal() ([]byte, error) { return m.AppendTo(nil) }

func (m *PacketIn) unmarshalBody(body []byte) error {
	if len(body) < 16 {
		return fmt.Errorf("openflow: truncated packet in")
	}
	m.BufferID = binary.BigEndian.Uint32(body[0:4])
	m.TotalLen = binary.BigEndian.Uint16(body[4:6])
	m.Reason = body[6]
	m.TableID = body[7]
	m.Cookie = binary.BigEndian.Uint64(body[8:16])
	consumed, err := m.Match.unmarshal(body[16:])
	if err != nil {
		return err
	}
	rest := body[16+consumed:]
	if len(rest) < 2 {
		return fmt.Errorf("openflow: packet in missing padding")
	}
	m.Data = payload(rest[2:])
	return nil
}

// PacketOut injects a packet into the switch datapath.
type PacketOut struct {
	xid
	BufferID uint32
	InPort   uint32
	Actions  []Action
	Data     []byte
}

// MsgType implements Message.
func (*PacketOut) MsgType() uint8 { return TypePacketOut }

// AppendTo implements Message.
func (m *PacketOut) AppendTo(b []byte) ([]byte, error) {
	start := len(b)
	b, fixed := begin(b, 16)
	binary.BigEndian.PutUint32(fixed[0:4], m.BufferID)
	binary.BigEndian.PutUint32(fixed[4:8], m.InPort)
	acts := len(b)
	b, err := appendActions(b, m.Actions)
	if err != nil {
		return nil, err
	}
	putLen16(b, start+HeaderLen+8, acts) // actions_len
	return finish(append(b, m.Data...), start, TypePacketOut, m.Xid)
}

// Marshal implements Message.
func (m *PacketOut) Marshal() ([]byte, error) { return m.AppendTo(nil) }

func (m *PacketOut) unmarshalBody(body []byte) error {
	if len(body) < 16 {
		return fmt.Errorf("openflow: truncated packet out")
	}
	m.BufferID = binary.BigEndian.Uint32(body[0:4])
	m.InPort = binary.BigEndian.Uint32(body[4:8])
	actLen := int(binary.BigEndian.Uint16(body[8:10]))
	if 16+actLen > len(body) {
		return fmt.Errorf("openflow: packet out actions overflow")
	}
	acts, err := unmarshalActions(body[16 : 16+actLen])
	if err != nil {
		return err
	}
	m.Actions = acts
	m.Data = payload(body[16+actLen:])
	return nil
}

// --- FlowRemoved -----------------------------------------------------

// Flow-removed reasons.
const (
	FlowRemovedIdleTimeout uint8 = 0
	FlowRemovedHardTimeout uint8 = 1
	FlowRemovedDelete      uint8 = 2
)

// FlowRemoved notifies the controller that a flow entry expired or was
// deleted (sent only for entries installed with FlowFlagSendFlowRem).
type FlowRemoved struct {
	xid
	Cookie       uint64
	Priority     uint16
	Reason       uint8
	TableID      uint8
	DurationSec  uint32
	DurationNsec uint32
	IdleTimeout  uint16
	HardTimeout  uint16
	PacketCount  uint64
	ByteCount    uint64
	Match        Match
}

// MsgType implements Message.
func (*FlowRemoved) MsgType() uint8 { return TypeFlowRemoved }

// AppendTo implements Message.
func (m *FlowRemoved) AppendTo(b []byte) ([]byte, error) {
	start := len(b)
	b, fixed := begin(b, 40)
	binary.BigEndian.PutUint64(fixed[0:8], m.Cookie)
	binary.BigEndian.PutUint16(fixed[8:10], m.Priority)
	fixed[10] = m.Reason
	fixed[11] = m.TableID
	binary.BigEndian.PutUint32(fixed[12:16], m.DurationSec)
	binary.BigEndian.PutUint32(fixed[16:20], m.DurationNsec)
	binary.BigEndian.PutUint16(fixed[20:22], m.IdleTimeout)
	binary.BigEndian.PutUint16(fixed[22:24], m.HardTimeout)
	binary.BigEndian.PutUint64(fixed[24:32], m.PacketCount)
	binary.BigEndian.PutUint64(fixed[32:40], m.ByteCount)
	b, err := m.Match.appendTo(b)
	if err != nil {
		return nil, err
	}
	return finish(b, start, TypeFlowRemoved, m.Xid)
}

// Marshal implements Message.
func (m *FlowRemoved) Marshal() ([]byte, error) { return m.AppendTo(nil) }

func (m *FlowRemoved) unmarshalBody(body []byte) error {
	if len(body) < 40 {
		return fmt.Errorf("openflow: truncated flow removed")
	}
	m.Cookie = binary.BigEndian.Uint64(body[0:8])
	m.Priority = binary.BigEndian.Uint16(body[8:10])
	m.Reason = body[10]
	m.TableID = body[11]
	m.DurationSec = binary.BigEndian.Uint32(body[12:16])
	m.DurationNsec = binary.BigEndian.Uint32(body[16:20])
	m.IdleTimeout = binary.BigEndian.Uint16(body[20:22])
	m.HardTimeout = binary.BigEndian.Uint16(body[22:24])
	m.PacketCount = binary.BigEndian.Uint64(body[24:32])
	m.ByteCount = binary.BigEndian.Uint64(body[32:40])
	_, err := m.Match.unmarshal(body[40:])
	return err
}

// --- PortStatus -------------------------------------------------------

// Port-status reasons.
const (
	PortReasonAdd    uint8 = 0
	PortReasonDelete uint8 = 1
	PortReasonModify uint8 = 2
)

// Port state bits.
const (
	PortStateLinkDown uint32 = 1 << 0
	PortStateLive     uint32 = 1 << 2
)

// PortDesc describes one switch port (ofp_port).
type PortDesc struct {
	PortNo    uint32
	HWAddr    pkt.MAC
	Name      string // max 15 chars on the wire
	Config    uint32
	State     uint32
	CurrSpeed uint32 // kbps
	MaxSpeed  uint32 // kbps
}

const portDescLen = 64

func (p *PortDesc) appendTo(b []byte) []byte {
	b, buf := extend(b, portDescLen)
	binary.BigEndian.PutUint32(buf[0:4], p.PortNo)
	copy(buf[8:14], p.HWAddr[:])
	putFixedString(buf[16:32], p.Name) // max 15 chars on the wire
	binary.BigEndian.PutUint32(buf[32:36], p.Config)
	binary.BigEndian.PutUint32(buf[36:40], p.State)
	binary.BigEndian.PutUint32(buf[56:60], p.CurrSpeed)
	binary.BigEndian.PutUint32(buf[60:64], p.MaxSpeed)
	return b
}

func unmarshalPortDesc(body []byte) (PortDesc, error) {
	var p PortDesc
	if len(body) < portDescLen {
		return p, fmt.Errorf("openflow: truncated port desc")
	}
	p.PortNo = binary.BigEndian.Uint32(body[0:4])
	copy(p.HWAddr[:], body[8:14])
	p.Name = getFixedString(body[16:32])
	p.Config = binary.BigEndian.Uint32(body[32:36])
	p.State = binary.BigEndian.Uint32(body[36:40])
	p.CurrSpeed = binary.BigEndian.Uint32(body[56:60])
	p.MaxSpeed = binary.BigEndian.Uint32(body[60:64])
	return p, nil
}

// PortStatus announces a port change.
type PortStatus struct {
	xid
	Reason uint8
	Desc   PortDesc
}

// MsgType implements Message.
func (*PortStatus) MsgType() uint8 { return TypePortStatus }

// AppendTo implements Message.
func (m *PortStatus) AppendTo(b []byte) ([]byte, error) {
	start := len(b)
	b, p := begin(b, 8)
	p[0] = m.Reason
	return finish(m.Desc.appendTo(b), start, TypePortStatus, m.Xid)
}

// Marshal implements Message.
func (m *PortStatus) Marshal() ([]byte, error) { return m.AppendTo(nil) }

func (m *PortStatus) unmarshalBody(body []byte) error {
	if len(body) < 8+portDescLen {
		return fmt.Errorf("openflow: truncated port status")
	}
	m.Reason = body[0]
	desc, err := unmarshalPortDesc(body[8:])
	if err != nil {
		return err
	}
	m.Desc = desc
	return nil
}
