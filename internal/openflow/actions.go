package openflow

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Action type codes (ofp_action_type).
const (
	ActionTypeOutput   uint16 = 0
	ActionTypePushVLAN uint16 = 17
	ActionTypePopVLAN  uint16 = 18
	ActionTypeGroup    uint16 = 22
	ActionTypeDecNwTTL uint16 = 24
	ActionTypeSetField uint16 = 25
)

// Action is one OpenFlow action.
type Action interface {
	// ActionType returns the ofp_action_type code.
	ActionType() uint16
	// appendTo appends the action's encoding, header and padding
	// included, to b.
	appendTo(b []byte) ([]byte, error)
	// String renders the action in ovs-ofctl style.
	String() string
}

// ActionOutput forwards the packet to a port (possibly reserved:
// PortController, PortFlood, PortAll, PortInPort).
type ActionOutput struct {
	Port   uint32
	MaxLen uint16 // bytes to send to the controller; 0xffff = no buffer
}

// ActionType implements Action.
func (a *ActionOutput) ActionType() uint16 { return ActionTypeOutput }

func (a *ActionOutput) appendTo(b []byte) ([]byte, error) {
	b, buf := extend(b, 16)
	binary.BigEndian.PutUint16(buf[0:2], ActionTypeOutput)
	binary.BigEndian.PutUint16(buf[2:4], 16)
	binary.BigEndian.PutUint32(buf[4:8], a.Port)
	binary.BigEndian.PutUint16(buf[8:10], a.MaxLen)
	return b, nil
}

// String implements Action.
func (a *ActionOutput) String() string {
	switch a.Port {
	case PortController:
		return "output:CONTROLLER"
	case PortFlood:
		return "output:FLOOD"
	case PortAll:
		return "output:ALL"
	case PortInPort:
		return "output:IN_PORT"
	}
	return fmt.Sprintf("output:%d", a.Port)
}

// ActionPushVLAN pushes a new VLAN tag with the given TPID (0x8100 or
// 0x88a8).
type ActionPushVLAN struct {
	EtherType uint16
}

// ActionType implements Action.
func (a *ActionPushVLAN) ActionType() uint16 { return ActionTypePushVLAN }

func (a *ActionPushVLAN) appendTo(b []byte) ([]byte, error) {
	return appendTLV8(b, ActionTypePushVLAN, uint32(a.EtherType)<<16)
}

// String implements Action.
func (a *ActionPushVLAN) String() string { return fmt.Sprintf("push_vlan:%#x", a.EtherType) }

// ActionPopVLAN removes the outermost VLAN tag.
type ActionPopVLAN struct{}

// ActionType implements Action.
func (a *ActionPopVLAN) ActionType() uint16 { return ActionTypePopVLAN }

func (a *ActionPopVLAN) appendTo(b []byte) ([]byte, error) {
	return appendTLV8(b, ActionTypePopVLAN, 0)
}

// String implements Action.
func (a *ActionPopVLAN) String() string { return "pop_vlan" }

// ActionGroup hands the packet to a group.
type ActionGroup struct {
	GroupID uint32
}

// ActionType implements Action.
func (a *ActionGroup) ActionType() uint16 { return ActionTypeGroup }

func (a *ActionGroup) appendTo(b []byte) ([]byte, error) {
	return appendTLV8(b, ActionTypeGroup, a.GroupID)
}

// String implements Action.
func (a *ActionGroup) String() string { return fmt.Sprintf("group:%d", a.GroupID) }

// ActionDecNwTTL decrements the IP TTL.
type ActionDecNwTTL struct{}

// ActionType implements Action.
func (a *ActionDecNwTTL) ActionType() uint16 { return ActionTypeDecNwTTL }

func (a *ActionDecNwTTL) appendTo(b []byte) ([]byte, error) {
	return appendTLV8(b, ActionTypeDecNwTTL, 0)
}

// String implements Action.
func (a *ActionDecNwTTL) String() string { return "dec_ttl" }

// ActionSetField rewrites one header field, expressed as a single
// (non-masked) OXM TLV.
type ActionSetField struct {
	OXM OXM
}

// ActionType implements Action.
func (a *ActionSetField) ActionType() uint16 { return ActionTypeSetField }

func (a *ActionSetField) appendTo(b []byte) ([]byte, error) {
	wantLen := int(oxmValueLen[a.OXM.Field])
	if wantLen == 0 {
		return nil, fmt.Errorf("openflow: set_field: unsupported OXM field %d", a.OXM.Field)
	}
	if a.OXM.HasMask {
		return nil, fmt.Errorf("openflow: set_field must not be masked")
	}
	if len(a.OXM.Value) != wantLen {
		return nil, fmt.Errorf("openflow: set_field %s value length %d", oxmName[a.OXM.Field], len(a.OXM.Value))
	}
	raw := 4 + 4 + wantLen // action hdr + oxm hdr + value
	total := (raw + 7) / 8 * 8
	b, buf := extend(b, total)
	binary.BigEndian.PutUint16(buf[0:2], ActionTypeSetField)
	binary.BigEndian.PutUint16(buf[2:4], uint16(total))
	hdr := uint32(OXMClassBasic)<<16 | uint32(a.OXM.Field)<<9 | uint32(wantLen)
	binary.BigEndian.PutUint32(buf[4:8], hdr)
	copy(buf[8:], a.OXM.Value)
	return b, nil
}

// String implements Action.
func (a *ActionSetField) String() string { return "set_field:" + a.OXM.String() }

// appendTLV8 appends the 8-byte form the short actions and instructions
// share: type, length 8, and four bytes of value or padding.
func appendTLV8(b []byte, typ uint16, v uint32) ([]byte, error) {
	b = binary.BigEndian.AppendUint16(b, typ)
	b = binary.BigEndian.AppendUint16(b, 8)
	return binary.BigEndian.AppendUint32(b, v), nil
}

// appendActions appends the action encodings to b.
func appendActions(b []byte, actions []Action) ([]byte, error) {
	var err error
	for _, a := range actions {
		if b, err = a.appendTo(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// unmarshalActions decodes a packed action list.
func unmarshalActions(data []byte) ([]Action, error) {
	var out []Action
	for len(data) > 0 {
		if len(data) < 8 {
			return nil, fmt.Errorf("openflow: truncated action header")
		}
		typ := binary.BigEndian.Uint16(data[0:2])
		alen := int(binary.BigEndian.Uint16(data[2:4]))
		if alen < 8 || alen%8 != 0 || alen > len(data) {
			return nil, fmt.Errorf("openflow: bad action length %d", alen)
		}
		body := data[:alen]
		switch typ {
		case ActionTypeOutput:
			if alen != 16 {
				return nil, fmt.Errorf("openflow: output action length %d", alen)
			}
			out = append(out, &ActionOutput{
				Port:   binary.BigEndian.Uint32(body[4:8]),
				MaxLen: binary.BigEndian.Uint16(body[8:10]),
			})
		case ActionTypePushVLAN:
			out = append(out, &ActionPushVLAN{EtherType: binary.BigEndian.Uint16(body[4:6])})
		case ActionTypePopVLAN:
			out = append(out, &ActionPopVLAN{})
		case ActionTypeGroup:
			out = append(out, &ActionGroup{GroupID: binary.BigEndian.Uint32(body[4:8])})
		case ActionTypeDecNwTTL:
			out = append(out, &ActionDecNwTTL{})
		case ActionTypeSetField:
			if alen < 12 {
				return nil, fmt.Errorf("openflow: set_field action too short")
			}
			hdr := binary.BigEndian.Uint32(body[4:8])
			field := uint8(hdr >> 9 & 0x7f)
			plen := int(hdr & 0xff)
			if uint16(hdr>>16) != OXMClassBasic || hdr&(1<<8) != 0 {
				return nil, fmt.Errorf("openflow: set_field bad OXM header %#x", hdr)
			}
			if 8+plen > alen {
				return nil, fmt.Errorf("openflow: set_field OXM overflows action")
			}
			if plen == 0 || plen != int(oxmValueLen[field]) {
				return nil, fmt.Errorf("openflow: set_field OXM field %d length %d", field, plen)
			}
			out = append(out, &ActionSetField{OXM: OXM{
				Field: field,
				Value: body[8 : 8+plen : 8+plen],
			}})
		default:
			return nil, fmt.Errorf("openflow: unsupported action type %d", typ)
		}
		data = data[alen:]
	}
	return out, nil
}

// actionsString renders a list like "pop_vlan,output:2".
func actionsString(actions []Action) string {
	var b strings.Builder
	for i, a := range actions {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a.String())
	}
	if b.Len() == 0 {
		return "drop"
	}
	return b.String()
}
