// Package openflow implements the OpenFlow 1.3 wire protocol subset
// that HARMLESS needs: the connection handshake (HELLO / FEATURES /
// ECHO), FLOW_MOD with OXM matches, instructions and actions,
// PACKET_IN / PACKET_OUT, GROUP_MOD, METER_MOD, BARRIER, PORT_STATUS,
// FLOW_REMOVED, ERROR, and the multipart (statistics) requests used by
// the ofctl tool (DESC, FLOW, PORT_STATS, PORT_DESC, TABLE).
//
// Messages are plain structs with AppendTo/unmarshal symmetric with the
// on-the-wire OpenFlow 1.3.5 encoding; Parse dispatches raw frames to
// the right struct. The Conn type frames messages over any
// io.ReadWriter (TCP in production, net.Pipe in tests).
//
// Vendor neutrality in the paper rests on standards compliance, so the
// encodings here follow the spec byte-for-byte (including padding),
// and the test suite round-trips every message type.
package openflow

import (
	"encoding/binary"
	"fmt"
)

// Version is the OpenFlow protocol version implemented (1.3).
const Version uint8 = 0x04

// HeaderLen is the length of the fixed message header.
const HeaderLen = 8

// Message type codes (ofp_type).
const (
	TypeHello            uint8 = 0
	TypeError            uint8 = 1
	TypeEchoRequest      uint8 = 2
	TypeEchoReply        uint8 = 3
	TypeFeaturesRequest  uint8 = 5
	TypeFeaturesReply    uint8 = 6
	TypePacketIn         uint8 = 10
	TypeFlowRemoved      uint8 = 11
	TypePortStatus       uint8 = 12
	TypePacketOut        uint8 = 13
	TypeFlowMod          uint8 = 14
	TypeGroupMod         uint8 = 15
	TypeMultipartRequest uint8 = 18
	TypeMultipartReply   uint8 = 19
	TypeBarrierRequest   uint8 = 20
	TypeBarrierReply     uint8 = 21
	TypeRoleRequest      uint8 = 24
	TypeRoleReply        uint8 = 25
	TypeGetAsyncRequest  uint8 = 26
	TypeGetAsyncReply    uint8 = 27
	TypeSetAsync         uint8 = 28
	TypeMeterMod         uint8 = 29
)

// Reserved port numbers (ofp_port_no).
const (
	PortMax        uint32 = 0xffffff00
	PortInPort     uint32 = 0xfffffff8
	PortTable      uint32 = 0xfffffff9
	PortNormal     uint32 = 0xfffffffa
	PortFlood      uint32 = 0xfffffffb
	PortAll        uint32 = 0xfffffffc
	PortController uint32 = 0xfffffffd
	PortLocal      uint32 = 0xfffffffe
	PortAny        uint32 = 0xffffffff
)

// NoBuffer indicates an unbuffered packet-in/out.
const NoBuffer uint32 = 0xffffffff

// Message is any OpenFlow message. AppendTo produces the complete wire
// frame including the header with the correct length.
type Message interface {
	// MsgType returns the ofp_type code.
	MsgType() uint8
	// XID returns the transaction id.
	XID() uint32
	// SetXID sets the transaction id.
	SetXID(uint32)
	// AppendTo appends the complete wire frame to b and returns the
	// extended slice. It is the message's one encoder: bytes before
	// len(b) are left as they are, and on error the result is nil.
	AppendTo(b []byte) ([]byte, error)
	// Marshal encodes the complete message: AppendTo(nil).
	Marshal() ([]byte, error)
}

// Header is the fixed OpenFlow header.
type Header struct {
	Version uint8
	Type    uint8
	Length  uint16
	Xid     uint32
}

// ParseHeader decodes the fixed header.
func ParseHeader(data []byte) (Header, error) {
	if len(data) < HeaderLen {
		return Header{}, fmt.Errorf("openflow: short header (%d bytes)", len(data))
	}
	return Header{
		Version: data[0],
		Type:    data[1],
		Length:  binary.BigEndian.Uint16(data[2:4]),
		Xid:     binary.BigEndian.Uint32(data[4:8]),
	}, nil
}

// extend appends n zero bytes to b and returns the result together
// with the new bytes, for the caller to fill by offset.
func extend(b []byte, n int) (all, tail []byte) {
	b = append(b, make([]byte, n)...)
	return b, b[len(b)-n:]
}

// begin opens a message at the end of b: room for the header, which
// finish fills once the length is known, and n zeroed bytes of fixed
// body, returned for the caller to fill by offset.
func begin(b []byte, n int) (all, fixed []byte) {
	b, p := extend(b, HeaderLen+n)
	return b, p[HeaderLen:]
}

// finish closes the message that begin opened at b[start:] by writing
// its header. The length field is 16 bits; a message that does not fit
// is an error.
func finish(b []byte, start int, typ uint8, xid uint32) ([]byte, error) {
	n := len(b) - start
	if n > 0xffff {
		return nil, fmt.Errorf("openflow: message type %d is %d bytes, over the 65535 its header can say", typ, n)
	}
	h := b[start:]
	h[0] = Version
	h[1] = typ
	binary.BigEndian.PutUint16(h[2:4], uint16(n))
	binary.BigEndian.PutUint32(h[4:8], xid)
	return b, nil
}

// putLen16 writes len(b)-start, the length of the structure that
// starts at b[start:], into the 16-bit field at b[at:].
func putLen16(b []byte, at, start int) {
	binary.BigEndian.PutUint16(b[at:], uint16(len(b)-start))
}

// xid embeds transaction-id handling into every message struct.
type xid struct{ Xid uint32 }

// XID returns the transaction id.
func (x *xid) XID() uint32 { return x.Xid }

// SetXID sets the transaction id.
func (x *xid) SetXID(v uint32) { x.Xid = v }

// Parse decodes one complete OpenFlow frame into its message struct.
// The message keeps data: match values and set-field values are slices
// of it, each with its capacity cut to its length, and a payload that
// ends the frame (PacketIn.Data, PacketOut.Data, echo and error data) is
// its tail, capacity and all.
func Parse(data []byte) (Message, error) {
	h, err := ParseHeader(data)
	if err != nil {
		return nil, err
	}
	if h.Version != Version {
		return nil, fmt.Errorf("openflow: unsupported version %#x", h.Version)
	}
	if int(h.Length) != len(data) {
		return nil, fmt.Errorf("openflow: header length %d != frame length %d", h.Length, len(data))
	}
	var m interface {
		Message
		unmarshalBody(body []byte) error
	}
	switch h.Type {
	case TypeHello:
		m = &Hello{}
	case TypeError:
		m = &Error{}
	case TypeEchoRequest:
		m = &EchoRequest{}
	case TypeEchoReply:
		m = &EchoReply{}
	case TypeFeaturesRequest:
		m = &FeaturesRequest{}
	case TypeFeaturesReply:
		m = &FeaturesReply{}
	case TypePacketIn:
		m = &PacketIn{}
	case TypeFlowRemoved:
		m = &FlowRemoved{}
	case TypePortStatus:
		m = &PortStatus{}
	case TypePacketOut:
		m = &PacketOut{}
	case TypeFlowMod:
		m = &FlowMod{}
	case TypeGroupMod:
		m = &GroupMod{}
	case TypeMeterMod:
		m = &MeterMod{}
	case TypeMultipartRequest:
		m = &MultipartRequest{}
	case TypeMultipartReply:
		m = &MultipartReply{}
	case TypeBarrierRequest:
		m = &BarrierRequest{}
	case TypeBarrierReply:
		m = &BarrierReply{}
	case TypeRoleRequest:
		m = &RoleRequest{}
	case TypeRoleReply:
		m = &RoleReply{}
	case TypeGetAsyncRequest:
		m = &GetAsyncRequest{}
	case TypeGetAsyncReply:
		m = &GetAsyncReply{}
	case TypeSetAsync:
		m = &SetAsync{}
	default:
		return nil, fmt.Errorf("openflow: unsupported message type %d", h.Type)
	}
	if err := m.unmarshalBody(data[HeaderLen:]); err != nil {
		return nil, err
	}
	m.SetXID(h.Xid)
	return m, nil
}
