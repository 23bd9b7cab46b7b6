package openflow

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Multipart types (ofp_multipart_type).
const (
	MultipartDesc      uint16 = 0
	MultipartFlow      uint16 = 1
	MultipartTable     uint16 = 3
	MultipartPortStats uint16 = 4
	MultipartPortDesc  uint16 = 13
)

// MultipartRequest asks for statistics. The Body depends on MPType:
// FlowStatsRequest for MultipartFlow, PortStatsRequest for
// MultipartPortStats; nil for DESC/TABLE/PORT_DESC.
type MultipartRequest struct {
	xid
	MPType uint16
	Flags  uint16
	Flow   *FlowStatsRequest
	Port   *PortStatsRequest
}

// FlowStatsRequest selects the flows to report.
type FlowStatsRequest struct {
	TableID    uint8 // 0xff = all tables
	OutPort    uint32
	OutGroup   uint32
	Cookie     uint64
	CookieMask uint64
	Match      Match
}

// PortStatsRequest selects the port (PortAny = all).
type PortStatsRequest struct {
	PortNo uint32
}

// TableAll addresses all tables in stats requests.
const TableAll uint8 = 0xff

// MsgType implements Message.
func (*MultipartRequest) MsgType() uint8 { return TypeMultipartRequest }

// AppendTo implements Message.
func (m *MultipartRequest) AppendTo(b []byte) ([]byte, error) {
	start := len(b)
	b, p := begin(b, 8)
	binary.BigEndian.PutUint16(p[0:2], m.MPType)
	binary.BigEndian.PutUint16(p[2:4], m.Flags)
	switch m.MPType {
	case MultipartFlow:
		req := m.Flow
		if req == nil {
			req = &FlowStatsRequest{TableID: TableAll, OutPort: PortAny, OutGroup: GroupAny}
		}
		var fixed []byte
		b, fixed = extend(b, 32)
		fixed[0] = req.TableID
		binary.BigEndian.PutUint32(fixed[4:8], req.OutPort)
		binary.BigEndian.PutUint32(fixed[8:12], req.OutGroup)
		binary.BigEndian.PutUint64(fixed[16:24], req.Cookie)
		binary.BigEndian.PutUint64(fixed[24:32], req.CookieMask)
		var err error
		if b, err = req.Match.appendTo(b); err != nil {
			return nil, err
		}
	case MultipartPortStats:
		port := PortAny
		if m.Port != nil {
			port = m.Port.PortNo
		}
		b = binary.BigEndian.AppendUint32(b, port)
		b = append(b, 0, 0, 0, 0)
	}
	return finish(b, start, TypeMultipartRequest, m.Xid)
}

// Marshal implements Message.
func (m *MultipartRequest) Marshal() ([]byte, error) { return m.AppendTo(nil) }

func (m *MultipartRequest) unmarshalBody(body []byte) error {
	if len(body) < 8 {
		return fmt.Errorf("openflow: truncated multipart request")
	}
	m.MPType = binary.BigEndian.Uint16(body[0:2])
	m.Flags = binary.BigEndian.Uint16(body[2:4])
	rest := body[8:]
	switch m.MPType {
	case MultipartFlow:
		if len(rest) < 32 {
			return fmt.Errorf("openflow: truncated flow stats request")
		}
		req := &FlowStatsRequest{
			TableID:    rest[0],
			OutPort:    binary.BigEndian.Uint32(rest[4:8]),
			OutGroup:   binary.BigEndian.Uint32(rest[8:12]),
			Cookie:     binary.BigEndian.Uint64(rest[16:24]),
			CookieMask: binary.BigEndian.Uint64(rest[24:32]),
		}
		if _, err := req.Match.unmarshal(rest[32:]); err != nil {
			return err
		}
		m.Flow = req
	case MultipartPortStats:
		if len(rest) < 8 {
			return fmt.Errorf("openflow: truncated port stats request")
		}
		m.Port = &PortStatsRequest{PortNo: binary.BigEndian.Uint32(rest[0:4])}
	}
	return nil
}

// FlowStats is one entry of a flow stats reply.
type FlowStats struct {
	TableID      uint8
	DurationSec  uint32
	Priority     uint16
	IdleTimeout  uint16
	HardTimeout  uint16
	Cookie       uint64
	PacketCount  uint64
	ByteCount    uint64
	Match        Match
	Instructions []Instruction
}

// String renders the entry in ovs-ofctl dump-flows style.
func (f *FlowStats) String() string {
	return fmt.Sprintf("table=%d, priority=%d, n_packets=%d, n_bytes=%d, %s actions=%s",
		f.TableID, f.Priority, f.PacketCount, f.ByteCount, f.Match.String(),
		instructionsString(f.Instructions))
}

func (f *FlowStats) appendTo(b []byte) ([]byte, error) {
	start := len(b)
	b, buf := extend(b, 48)
	buf[2] = f.TableID
	binary.BigEndian.PutUint32(buf[4:8], f.DurationSec)
	binary.BigEndian.PutUint16(buf[12:14], f.Priority)
	binary.BigEndian.PutUint16(buf[14:16], f.IdleTimeout)
	binary.BigEndian.PutUint16(buf[16:18], f.HardTimeout)
	binary.BigEndian.PutUint64(buf[24:32], f.Cookie)
	binary.BigEndian.PutUint64(buf[32:40], f.PacketCount)
	binary.BigEndian.PutUint64(buf[40:48], f.ByteCount)
	b, err := f.Match.appendTo(b)
	if err != nil {
		return nil, err
	}
	if b, err = appendInstructions(b, f.Instructions); err != nil {
		return nil, err
	}
	putLen16(b, start, start)
	return b, nil
}

func unmarshalFlowStats(data []byte) ([]FlowStats, error) {
	var out []FlowStats
	for len(data) > 0 {
		if len(data) < 48 {
			return nil, fmt.Errorf("openflow: truncated flow stats entry")
		}
		elen := int(binary.BigEndian.Uint16(data[0:2]))
		if elen < 48 || elen > len(data) {
			return nil, fmt.Errorf("openflow: bad flow stats length %d", elen)
		}
		entry := data[:elen]
		f := FlowStats{
			TableID:     entry[2],
			DurationSec: binary.BigEndian.Uint32(entry[4:8]),
			Priority:    binary.BigEndian.Uint16(entry[12:14]),
			IdleTimeout: binary.BigEndian.Uint16(entry[14:16]),
			HardTimeout: binary.BigEndian.Uint16(entry[16:18]),
			Cookie:      binary.BigEndian.Uint64(entry[24:32]),
			PacketCount: binary.BigEndian.Uint64(entry[32:40]),
			ByteCount:   binary.BigEndian.Uint64(entry[40:48]),
		}
		consumed, err := f.Match.unmarshal(entry[48:])
		if err != nil {
			return nil, err
		}
		instrs, err := unmarshalInstructions(entry[48+consumed:])
		if err != nil {
			return nil, err
		}
		f.Instructions = instrs
		out = append(out, f)
		data = data[elen:]
	}
	return out, nil
}

// PortStats is one entry of a port stats reply.
type PortStats struct {
	PortNo    uint32
	RxPackets uint64
	TxPackets uint64
	RxBytes   uint64
	TxBytes   uint64
	RxDropped uint64
	TxDropped uint64
	RxErrors  uint64
}

const portStatsLen = 112

func (p *PortStats) appendTo(b []byte) []byte {
	b, buf := extend(b, portStatsLen)
	binary.BigEndian.PutUint32(buf[0:4], p.PortNo)
	binary.BigEndian.PutUint64(buf[8:16], p.RxPackets)
	binary.BigEndian.PutUint64(buf[16:24], p.TxPackets)
	binary.BigEndian.PutUint64(buf[24:32], p.RxBytes)
	binary.BigEndian.PutUint64(buf[32:40], p.TxBytes)
	binary.BigEndian.PutUint64(buf[40:48], p.RxDropped)
	binary.BigEndian.PutUint64(buf[48:56], p.TxDropped)
	binary.BigEndian.PutUint64(buf[56:64], p.RxErrors)
	return b
}

func unmarshalPortStats(data []byte) ([]PortStats, error) {
	var out []PortStats
	for len(data) > 0 {
		if len(data) < portStatsLen {
			return nil, fmt.Errorf("openflow: truncated port stats entry")
		}
		e := data[:portStatsLen]
		out = append(out, PortStats{
			PortNo:    binary.BigEndian.Uint32(e[0:4]),
			RxPackets: binary.BigEndian.Uint64(e[8:16]),
			TxPackets: binary.BigEndian.Uint64(e[16:24]),
			RxBytes:   binary.BigEndian.Uint64(e[24:32]),
			TxBytes:   binary.BigEndian.Uint64(e[32:40]),
			RxDropped: binary.BigEndian.Uint64(e[40:48]),
			TxDropped: binary.BigEndian.Uint64(e[48:56]),
			RxErrors:  binary.BigEndian.Uint64(e[56:64]),
		})
		data = data[portStatsLen:]
	}
	return out, nil
}

// TableStats is one entry of a table stats reply.
type TableStats struct {
	TableID      uint8
	ActiveCount  uint32
	LookupCount  uint64
	MatchedCount uint64
}

const tableStatsLen = 24

func (t *TableStats) appendTo(b []byte) []byte {
	b, buf := extend(b, tableStatsLen)
	buf[0] = t.TableID
	binary.BigEndian.PutUint32(buf[4:8], t.ActiveCount)
	binary.BigEndian.PutUint64(buf[8:16], t.LookupCount)
	binary.BigEndian.PutUint64(buf[16:24], t.MatchedCount)
	return b
}

func unmarshalTableStats(data []byte) ([]TableStats, error) {
	var out []TableStats
	for len(data) > 0 {
		if len(data) < tableStatsLen {
			return nil, fmt.Errorf("openflow: truncated table stats entry")
		}
		e := data[:tableStatsLen]
		out = append(out, TableStats{
			TableID:      e[0],
			ActiveCount:  binary.BigEndian.Uint32(e[4:8]),
			LookupCount:  binary.BigEndian.Uint64(e[8:16]),
			MatchedCount: binary.BigEndian.Uint64(e[16:24]),
		})
		data = data[tableStatsLen:]
	}
	return out, nil
}

// SwitchDesc is the DESC reply body.
type SwitchDesc struct {
	Manufacturer string
	Hardware     string
	Software     string
	SerialNum    string
	Datapath     string
}

func putFixedString(buf []byte, s string) {
	if len(s) >= len(buf) {
		s = s[:len(buf)-1]
	}
	copy(buf, s)
}

// getFixedString reads a NUL-terminated string field. The terminator is
// part of the field, so a field with none is cut where putFixedString
// would have put it.
func getFixedString(buf []byte) string {
	buf = buf[:len(buf)-1]
	if i := bytes.IndexByte(buf, 0); i >= 0 {
		buf = buf[:i]
	}
	return string(buf)
}

func (d *SwitchDesc) appendTo(b []byte) []byte {
	b, buf := extend(b, 1056)
	putFixedString(buf[0:256], d.Manufacturer)
	putFixedString(buf[256:512], d.Hardware)
	putFixedString(buf[512:768], d.Software)
	putFixedString(buf[768:800], d.SerialNum)
	putFixedString(buf[800:1056], d.Datapath)
	return b
}

func unmarshalSwitchDesc(data []byte) (*SwitchDesc, error) {
	if len(data) < 1056 {
		return nil, fmt.Errorf("openflow: truncated desc reply")
	}
	return &SwitchDesc{
		Manufacturer: getFixedString(data[0:256]),
		Hardware:     getFixedString(data[256:512]),
		Software:     getFixedString(data[512:768]),
		SerialNum:    getFixedString(data[768:800]),
		Datapath:     getFixedString(data[800:1056]),
	}, nil
}

// MultipartReply carries statistics; exactly one of the typed bodies is
// populated according to MPType.
type MultipartReply struct {
	xid
	MPType    uint16
	Flags     uint16
	Desc      *SwitchDesc
	Flows     []FlowStats
	Ports     []PortStats
	Tables    []TableStats
	PortDescs []PortDesc
}

// MsgType implements Message.
func (*MultipartReply) MsgType() uint8 { return TypeMultipartReply }

// AppendTo implements Message.
func (m *MultipartReply) AppendTo(b []byte) ([]byte, error) {
	start := len(b)
	b, p := begin(b, 8)
	binary.BigEndian.PutUint16(p[0:2], m.MPType)
	binary.BigEndian.PutUint16(p[2:4], m.Flags)
	switch m.MPType {
	case MultipartDesc:
		d := m.Desc
		if d == nil {
			d = &SwitchDesc{}
		}
		b = d.appendTo(b)
	case MultipartFlow:
		var err error
		for i := range m.Flows {
			if b, err = m.Flows[i].appendTo(b); err != nil {
				return nil, err
			}
		}
	case MultipartPortStats:
		for i := range m.Ports {
			b = m.Ports[i].appendTo(b)
		}
	case MultipartTable:
		for i := range m.Tables {
			b = m.Tables[i].appendTo(b)
		}
	case MultipartPortDesc:
		for i := range m.PortDescs {
			b = m.PortDescs[i].appendTo(b)
		}
	default:
		return nil, fmt.Errorf("openflow: unsupported multipart type %d", m.MPType)
	}
	return finish(b, start, TypeMultipartReply, m.Xid)
}

// Marshal implements Message.
func (m *MultipartReply) Marshal() ([]byte, error) { return m.AppendTo(nil) }

func (m *MultipartReply) unmarshalBody(body []byte) error {
	if len(body) < 8 {
		return fmt.Errorf("openflow: truncated multipart reply")
	}
	m.MPType = binary.BigEndian.Uint16(body[0:2])
	m.Flags = binary.BigEndian.Uint16(body[2:4])
	rest := body[8:]
	var err error
	switch m.MPType {
	case MultipartDesc:
		m.Desc, err = unmarshalSwitchDesc(rest)
	case MultipartFlow:
		m.Flows, err = unmarshalFlowStats(rest)
	case MultipartPortStats:
		m.Ports, err = unmarshalPortStats(rest)
	case MultipartTable:
		m.Tables, err = unmarshalTableStats(rest)
	case MultipartPortDesc:
		for len(rest) >= portDescLen {
			var d PortDesc
			d, err = unmarshalPortDesc(rest)
			if err != nil {
				return err
			}
			m.PortDescs = append(m.PortDescs, d)
			rest = rest[portDescLen:]
		}
	default:
		return fmt.Errorf("openflow: unsupported multipart type %d", m.MPType)
	}
	return err
}
