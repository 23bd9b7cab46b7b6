package telemetry

import (
	"encoding/binary"
	"fmt"
)

// IPFIX-style export encoding (RFC 7011 message framing, RFC 5103
// reverse information elements for biflows). Each message carries the
// template set followed by data sets, so a collector can decode any
// message in isolation — the simple-and-robust choice for UDP
// transport; real exporters amortize templates over an interval, which
// costs this encoder ~90 bytes per message.
//
// Two templates are exported:
//
//	FlowTemplateID (256): merged (bi)flow records — MACs, ethertype,
//	    VLAN, 5-tuple, interfaces, forward and reverse delta
//	    counters, window timestamps, end reason.
//	SampleTemplateID (257): sFlow-style packet samples — 5-tuple,
//	    interfaces, frame size, sampling interval.

const (
	ipfixVersion   = 10
	ipfixHeaderLen = 16

	// TemplateSetID is the reserved set id carrying templates.
	TemplateSetID = 2
	// FlowTemplateID identifies the (bi)flow record template.
	FlowTemplateID = 256
	// SampleTemplateID identifies the packet-sample template.
	SampleTemplateID = 257

	// ReversePEN is the IANA enterprise number of RFC 5103 reverse
	// information elements.
	ReversePEN = 29305
)

// IANA information element ids used by the templates.
const (
	ieOctetDeltaCount   = 1
	iePacketDeltaCount  = 2
	ieProtocol          = 4
	ieSrcPort           = 7
	ieSrcIPv4           = 8
	ieIngressInterface  = 10
	ieDstPort           = 11
	ieDstIPv4           = 12
	ieEgressInterface   = 14
	ieSamplingInterval  = 34
	ieSourceMac         = 56
	ieVlanID            = 58
	ieDestinationMac    = 80
	ieFlowEndReason     = 136
	ieFlowStartMillis   = 152
	ieFlowEndMillis     = 153
	ieEthernetType      = 256
	enterpriseBit       = 0x8000
	ieRevOctetDelta     = enterpriseBit | ieOctetDeltaCount
	ieRevPacketDelta    = enterpriseBit | iePacketDeltaCount
	maxRecordsPerMsg    = 14 // keeps messages comfortably under 1500B
	maxMsgLenForDecoder = 1 << 16
)

// fieldSpec is one template field: IANA id (with the enterprise bit
// folded in), length, and enterprise number (0 = IANA).
type fieldSpec struct {
	id  uint16
	len uint16
	pen uint32
}

var flowTemplate = []fieldSpec{
	{ieSourceMac, 6, 0},
	{ieDestinationMac, 6, 0},
	{ieEthernetType, 2, 0},
	{ieVlanID, 2, 0},
	{ieSrcIPv4, 4, 0},
	{ieDstIPv4, 4, 0},
	{ieProtocol, 1, 0},
	{ieSrcPort, 2, 0},
	{ieDstPort, 2, 0},
	{ieIngressInterface, 4, 0},
	{ieEgressInterface, 4, 0},
	{ieOctetDeltaCount, 8, 0},
	{iePacketDeltaCount, 8, 0},
	{ieRevOctetDelta, 8, ReversePEN},
	{ieRevPacketDelta, 8, ReversePEN},
	{ieFlowStartMillis, 8, 0},
	{ieFlowEndMillis, 8, 0},
	{ieFlowEndReason, 1, 0},
}

var sampleTemplate = []fieldSpec{
	{ieSrcIPv4, 4, 0},
	{ieDstIPv4, 4, 0},
	{ieProtocol, 1, 0},
	{ieSrcPort, 2, 0},
	{ieDstPort, 2, 0},
	{ieIngressInterface, 4, 0},
	{ieEgressInterface, 4, 0},
	{ieOctetDeltaCount, 8, 0},
	{ieSamplingInterval, 4, 0},
}

// WireRecord is one (possibly bidirectional) flow record bound for the
// wire: the aggregator's merge output. Key carries the forward
// direction; Rev* count the reverse direction when a matching
// opposite-direction record was merged in.
type WireRecord struct {
	Key        FlowKey
	Packets    uint64
	Bytes      uint64
	RevPackets uint64
	RevBytes   uint64
	First      int64 // unixnano
	Last       int64
	OutPort    uint32
	EndReason  uint8
}

// WireSample is one packet sample bound for the wire.
type WireSample struct {
	Key      FlowKey
	Size     uint32
	OutPort  uint32
	Interval uint32
}

// Encoder renders IPFIX-style messages. Not safe for concurrent use;
// the aggregator owns one.
type Encoder struct {
	// Domain is the observation domain id stamped on every message.
	Domain uint32

	seq uint32 // data records exported so far (RFC 7011 sequence semantics)
	buf []byte
}

// appendU16/U32/U64 keep the encoding noise down.
func appendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// appendTemplateSet renders the template set declaring both templates.
func appendTemplateSet(b []byte) []byte {
	setStart := len(b)
	b = appendU16(b, TemplateSetID)
	b = appendU16(b, 0) // set length, patched below
	for _, t := range []struct {
		id     uint16
		fields []fieldSpec
	}{{FlowTemplateID, flowTemplate}, {SampleTemplateID, sampleTemplate}} {
		b = appendU16(b, t.id)
		b = appendU16(b, uint16(len(t.fields)))
		for _, f := range t.fields {
			b = appendU16(b, f.id)
			b = appendU16(b, f.len)
			if f.id&enterpriseBit != 0 {
				b = appendU32(b, f.pen)
			}
		}
	}
	binary.BigEndian.PutUint16(b[setStart+2:], uint16(len(b)-setStart))
	return b
}

func appendFlowRecord(b []byte, r *WireRecord) []byte {
	b = append(b, r.Key.EthSrc[:]...)
	b = append(b, r.Key.EthDst[:]...)
	b = appendU16(b, r.Key.EthType)
	b = appendU16(b, r.Key.VLANID)
	b = append(b, r.Key.IPSrc[:]...)
	b = append(b, r.Key.IPDst[:]...)
	b = append(b, r.Key.Proto)
	b = appendU16(b, r.Key.L4Src)
	b = appendU16(b, r.Key.L4Dst)
	b = appendU32(b, r.Key.InPort)
	b = appendU32(b, r.OutPort)
	b = appendU64(b, r.Bytes)
	b = appendU64(b, r.Packets)
	b = appendU64(b, r.RevBytes)
	b = appendU64(b, r.RevPackets)
	b = appendU64(b, uint64(r.First/1e6))
	b = appendU64(b, uint64(r.Last/1e6))
	b = append(b, r.EndReason)
	return b
}

func appendSampleRecord(b []byte, s *WireSample) []byte {
	b = append(b, s.Key.IPSrc[:]...)
	b = append(b, s.Key.IPDst[:]...)
	b = append(b, s.Key.Proto)
	b = appendU16(b, s.Key.L4Src)
	b = appendU16(b, s.Key.L4Dst)
	b = appendU32(b, s.Key.InPort)
	b = appendU32(b, s.OutPort)
	b = appendU64(b, uint64(s.Size))
	b = appendU32(b, s.Interval)
	return b
}

// Encode renders flows and samples into one or more self-contained
// messages (template set + data sets) and hands each to emit. The
// returned slice count is the number of messages produced. exportTime
// is the unix-seconds export timestamp stamped on the headers.
func (e *Encoder) Encode(flows []WireRecord, samples []WireSample, exportTime uint32, emit func(msg []byte) error) (int, error) {
	msgs := 0
	for len(flows) > 0 || len(samples) > 0 {
		nf := len(flows)
		if nf > maxRecordsPerMsg {
			nf = maxRecordsPerMsg
		}
		ns := len(samples)
		if ns > maxRecordsPerMsg-nf {
			ns = maxRecordsPerMsg - nf
		}
		msg := e.encodeOne(flows[:nf], samples[:ns], exportTime)
		if err := emit(msg); err != nil {
			return msgs, err
		}
		msgs++
		flows = flows[nf:]
		samples = samples[ns:]
	}
	return msgs, nil
}

// encodeOne renders one message into the encoder's reusable buffer.
func (e *Encoder) encodeOne(flows []WireRecord, samples []WireSample, exportTime uint32) []byte {
	b := e.buf[:0]
	b = appendU16(b, ipfixVersion)
	b = appendU16(b, 0) // message length, patched below
	b = appendU32(b, exportTime)
	b = appendU32(b, e.seq)
	b = appendU32(b, e.Domain)
	b = appendTemplateSet(b)
	if len(flows) > 0 {
		setStart := len(b)
		b = appendU16(b, FlowTemplateID)
		b = appendU16(b, 0)
		for i := range flows {
			b = appendFlowRecord(b, &flows[i])
		}
		binary.BigEndian.PutUint16(b[setStart+2:], uint16(len(b)-setStart))
		e.seq += uint32(len(flows))
	}
	if len(samples) > 0 {
		setStart := len(b)
		b = appendU16(b, SampleTemplateID)
		b = appendU16(b, 0)
		for i := range samples {
			b = appendSampleRecord(b, &samples[i])
		}
		binary.BigEndian.PutUint16(b[setStart+2:], uint16(len(b)-setStart))
		e.seq += uint32(len(samples))
	}
	binary.BigEndian.PutUint16(b[2:], uint16(len(b)))
	e.buf = b
	return b
}

var errShortMessage = fmt.Errorf("telemetry: truncated ipfix message")
