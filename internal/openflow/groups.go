package openflow

import (
	"encoding/binary"
	"fmt"
)

// Group commands (ofp_group_mod_command).
const (
	GroupAdd    uint16 = 0
	GroupModify uint16 = 1
	GroupDelete uint16 = 2
)

// Group types (ofp_group_type).
const (
	GroupTypeAll      uint8 = 0 // replicate to every bucket
	GroupTypeSelect   uint8 = 1 // pick one bucket (load balancing)
	GroupTypeIndirect uint8 = 2 // single bucket
	GroupTypeFF       uint8 = 3 // fast failover
)

// GroupAny addresses all groups in delete operations.
const GroupAny uint32 = 0xffffffff

// Bucket is one action set within a group.
type Bucket struct {
	Weight     uint16 // select groups: relative selection weight
	WatchPort  uint32 // FF groups: port whose liveness gates the bucket
	WatchGroup uint32
	Actions    []Action
}

func (bk *Bucket) appendTo(b []byte) ([]byte, error) {
	start := len(b)
	b, buf := extend(b, 16)
	binary.BigEndian.PutUint16(buf[2:4], bk.Weight)
	binary.BigEndian.PutUint32(buf[4:8], bk.WatchPort)
	binary.BigEndian.PutUint32(buf[8:12], bk.WatchGroup)
	b, err := appendActions(b, bk.Actions)
	if err != nil {
		return nil, err
	}
	putLen16(b, start, start)
	return b, nil
}

func unmarshalBuckets(data []byte) ([]Bucket, error) {
	var out []Bucket
	for len(data) > 0 {
		if len(data) < 16 {
			return nil, fmt.Errorf("openflow: truncated bucket")
		}
		blen := int(binary.BigEndian.Uint16(data[0:2]))
		if blen < 16 || blen > len(data) {
			return nil, fmt.Errorf("openflow: bad bucket length %d", blen)
		}
		acts, err := unmarshalActions(data[16:blen])
		if err != nil {
			return nil, err
		}
		out = append(out, Bucket{
			Weight:     binary.BigEndian.Uint16(data[2:4]),
			WatchPort:  binary.BigEndian.Uint32(data[4:8]),
			WatchGroup: binary.BigEndian.Uint32(data[8:12]),
			Actions:    acts,
		})
		data = data[blen:]
	}
	return out, nil
}

// GroupMod installs, modifies or removes a group.
type GroupMod struct {
	xid
	Command   uint16
	GroupType uint8
	GroupID   uint32
	Buckets   []Bucket
}

// MsgType implements Message.
func (*GroupMod) MsgType() uint8 { return TypeGroupMod }

// AppendTo implements Message.
func (m *GroupMod) AppendTo(b []byte) ([]byte, error) {
	start := len(b)
	b, p := begin(b, 8)
	binary.BigEndian.PutUint16(p[0:2], m.Command)
	p[2] = m.GroupType
	binary.BigEndian.PutUint32(p[4:8], m.GroupID)
	var err error
	for i := range m.Buckets {
		if b, err = m.Buckets[i].appendTo(b); err != nil {
			return nil, err
		}
	}
	return finish(b, start, TypeGroupMod, m.Xid)
}

// Marshal implements Message.
func (m *GroupMod) Marshal() ([]byte, error) { return m.AppendTo(nil) }

func (m *GroupMod) unmarshalBody(body []byte) error {
	if len(body) < 8 {
		return fmt.Errorf("openflow: truncated group mod")
	}
	m.Command = binary.BigEndian.Uint16(body[0:2])
	m.GroupType = body[2]
	m.GroupID = binary.BigEndian.Uint32(body[4:8])
	buckets, err := unmarshalBuckets(body[8:])
	if err != nil {
		return err
	}
	m.Buckets = buckets
	return nil
}

// --- MeterMod ----------------------------------------------------------

// Meter commands.
const (
	MeterAdd    uint16 = 0
	MeterModify uint16 = 1
	MeterDelete uint16 = 2
)

// Meter flags.
const (
	MeterFlagKbps  uint16 = 1 << 0
	MeterFlagPktps uint16 = 1 << 2
)

// Meter band types.
const (
	MeterBandDrop uint16 = 1
)

// MeterBand is one rate band (only drop bands are supported).
type MeterBand struct {
	Type      uint16
	Rate      uint32 // kbps or pkt/s depending on flags
	BurstSize uint32
}

// MeterMod installs, modifies or removes a meter.
type MeterMod struct {
	xid
	Command uint16
	Flags   uint16
	MeterID uint32
	Bands   []MeterBand
}

// MsgType implements Message.
func (*MeterMod) MsgType() uint8 { return TypeMeterMod }

// AppendTo implements Message.
func (m *MeterMod) AppendTo(b []byte) ([]byte, error) {
	start := len(b)
	b, p := begin(b, 8+16*len(m.Bands))
	binary.BigEndian.PutUint16(p[0:2], m.Command)
	binary.BigEndian.PutUint16(p[2:4], m.Flags)
	binary.BigEndian.PutUint32(p[4:8], m.MeterID)
	for i, band := range m.Bands {
		e := p[8+16*i:]
		binary.BigEndian.PutUint16(e[0:2], band.Type)
		binary.BigEndian.PutUint16(e[2:4], 16)
		binary.BigEndian.PutUint32(e[4:8], band.Rate)
		binary.BigEndian.PutUint32(e[8:12], band.BurstSize)
	}
	return finish(b, start, TypeMeterMod, m.Xid)
}

// Marshal implements Message.
func (m *MeterMod) Marshal() ([]byte, error) { return m.AppendTo(nil) }

func (m *MeterMod) unmarshalBody(body []byte) error {
	if len(body) < 8 {
		return fmt.Errorf("openflow: truncated meter mod")
	}
	m.Command = binary.BigEndian.Uint16(body[0:2])
	m.Flags = binary.BigEndian.Uint16(body[2:4])
	m.MeterID = binary.BigEndian.Uint32(body[4:8])
	rest := body[8:]
	for len(rest) > 0 {
		if len(rest) < 16 {
			return fmt.Errorf("openflow: truncated meter band")
		}
		blen := int(binary.BigEndian.Uint16(rest[2:4]))
		if blen < 16 || blen > len(rest) {
			return fmt.Errorf("openflow: bad meter band length %d", blen)
		}
		m.Bands = append(m.Bands, MeterBand{
			Type:      binary.BigEndian.Uint16(rest[0:2]),
			Rate:      binary.BigEndian.Uint32(rest[4:8]),
			BurstSize: binary.BigEndian.Uint32(rest[8:12]),
		})
		rest = rest[blen:]
	}
	return nil
}
