package telemetry

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"sync"
)

// Collector is an IPFIX-style collector: it decodes exported messages
// (template and data sets) and accumulates per-flow totals. It serves
// three roles:
//
//   - the in-process exporter for tests and harmlessd's /stats view
//     (Collector implements Exporter, so it can sit directly behind an
//     Aggregator);
//   - the decode half of the wire-format round-trip tests;
//   - the engine of cmd/flowtop, fed from a UDP socket via ServeUDP.
//
// Safe for concurrent use.
type Collector struct {
	mu        sync.Mutex
	templates map[uint16][]fieldSpec
	flows     map[FlowKey]*CollectedFlow

	messages   uint64
	records    uint64
	samples    uint64
	sampleByte uint64
	decodeErrs uint64

	totalPackets uint64 // fwd+rev packets over all flow records
	totalBytes   uint64
}

// CollectedFlow is the accumulated state of one exported flow.
type CollectedFlow struct {
	Key        FlowKey
	Packets    uint64
	Bytes      uint64
	RevPackets uint64
	RevBytes   uint64
	FirstMs    uint64
	LastMs     uint64
	OutPort    uint32
	EndReason  uint8
	Records    uint64 // export records merged into this flow
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		templates: make(map[uint16][]fieldSpec),
		flows:     make(map[FlowKey]*CollectedFlow),
	}
}

// maxCollectedFlows bounds a collector's per-flow map: past it a
// pseudo-random flow is dropped to admit a new one, so a collector fed
// endless flow churn (harmlessd, flowtop) stays bounded. The aggregate
// Totals/Stats counters are unaffected — only the per-flow breakdown
// is bounded.
const maxCollectedFlows = 1 << 16

// ExportMessage implements Exporter: consume the message in-process.
func (c *Collector) ExportMessage(msg []byte) error { return c.Consume(msg) }

// Close implements Exporter.
func (c *Collector) Close() error { return nil }

// Consume decodes one exported message and folds its records into the
// collector state.
func (c *Collector) Consume(msg []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.consumeLocked(msg); err != nil {
		c.decodeErrs++
		return err
	}
	c.messages++
	return nil
}

func (c *Collector) consumeLocked(msg []byte) error {
	if len(msg) < ipfixHeaderLen || len(msg) > maxMsgLenForDecoder {
		return errShortMessage
	}
	if v := binary.BigEndian.Uint16(msg[0:2]); v != ipfixVersion {
		return fmt.Errorf("telemetry: unexpected ipfix version %d", v)
	}
	if l := int(binary.BigEndian.Uint16(msg[2:4])); l != len(msg) {
		return fmt.Errorf("telemetry: message length %d != %d", l, len(msg))
	}
	off := ipfixHeaderLen
	for off < len(msg) {
		if off+4 > len(msg) {
			return errShortMessage
		}
		setID := binary.BigEndian.Uint16(msg[off : off+2])
		setLen := int(binary.BigEndian.Uint16(msg[off+2 : off+4]))
		if setLen < 4 || off+setLen > len(msg) {
			return errShortMessage
		}
		body := msg[off+4 : off+setLen]
		switch {
		case setID == TemplateSetID:
			if err := c.parseTemplates(body); err != nil {
				return err
			}
		case setID >= 256:
			if err := c.parseData(setID, body); err != nil {
				return err
			}
		}
		off += setLen
	}
	return nil
}

func (c *Collector) parseTemplates(b []byte) error {
	for len(b) >= 4 {
		tid := binary.BigEndian.Uint16(b[0:2])
		count := int(binary.BigEndian.Uint16(b[2:4]))
		b = b[4:]
		fields := make([]fieldSpec, 0, count)
		for i := 0; i < count; i++ {
			if len(b) < 4 {
				return errShortMessage
			}
			f := fieldSpec{
				id:  binary.BigEndian.Uint16(b[0:2]),
				len: binary.BigEndian.Uint16(b[2:4]),
			}
			b = b[4:]
			if f.id&enterpriseBit != 0 {
				if len(b) < 4 {
					return errShortMessage
				}
				f.pen = binary.BigEndian.Uint32(b[0:4])
				b = b[4:]
			}
			fields = append(fields, f)
		}
		c.templates[tid] = fields
	}
	return nil
}

// parseData decodes a data set against its (previously seen) template.
func (c *Collector) parseData(tid uint16, b []byte) error {
	fields, ok := c.templates[tid]
	if !ok {
		return fmt.Errorf("telemetry: data set %d without template", tid)
	}
	recLen := 0
	for _, f := range fields {
		recLen += int(f.len)
	}
	if recLen == 0 {
		return errShortMessage
	}
	for len(b) >= recLen {
		rec := b[:recLen]
		b = b[recLen:]
		c.foldRecord(tid, fields, rec)
	}
	return nil
}

// foldRecord interprets one data record's fields by IE id and folds it
// into the flow (or sample) totals. Unknown IEs are skipped by length,
// so the collector tolerates richer templates, and numbers are read at
// whatever width the sender's template declares.
func (c *Collector) foldRecord(tid uint16, fields []fieldSpec, rec []byte) {
	var f CollectedFlow
	off := 0
	for _, fs := range fields {
		v := rec[off : off+int(fs.len)]
		off += int(fs.len)
		if fs.pen == ReversePEN {
			switch fs.id &^ enterpriseBit {
			case ieOctetDeltaCount:
				f.RevBytes = beUint(v)
			case iePacketDeltaCount:
				f.RevPackets = beUint(v)
			}
			continue
		}
		if fs.pen != 0 {
			continue
		}
		switch fs.id {
		case ieSourceMac:
			copy(f.Key.EthSrc[:], v)
		case ieDestinationMac:
			copy(f.Key.EthDst[:], v)
		case ieEthernetType:
			f.Key.EthType = uint16(beUint(v))
		case ieVlanID:
			f.Key.VLANID = uint16(beUint(v))
		case ieSrcIPv4:
			copy(f.Key.IPSrc[:], v)
		case ieDstIPv4:
			copy(f.Key.IPDst[:], v)
		case ieProtocol:
			f.Key.Proto = uint8(beUint(v))
		case ieSrcPort:
			f.Key.L4Src = uint16(beUint(v))
		case ieDstPort:
			f.Key.L4Dst = uint16(beUint(v))
		case ieIngressInterface:
			f.Key.InPort = uint32(beUint(v))
		case ieEgressInterface:
			f.OutPort = uint32(beUint(v))
		case ieOctetDeltaCount:
			f.Bytes = beUint(v)
		case iePacketDeltaCount:
			f.Packets = beUint(v)
		case ieFlowStartMillis:
			f.FirstMs = beUint(v)
		case ieFlowEndMillis:
			f.LastMs = beUint(v)
		case ieFlowEndReason:
			f.EndReason = uint8(beUint(v))
		}
	}
	if tid == SampleTemplateID {
		c.samples++
		c.sampleByte += f.Bytes
		return
	}
	c.records++
	c.totalPackets += f.Packets + f.RevPackets
	c.totalBytes += f.Bytes + f.RevBytes
	acc := c.flows[f.Key]
	if acc == nil {
		if len(c.flows) >= maxCollectedFlows {
			for victim := range c.flows {
				delete(c.flows, victim)
				break
			}
		}
		acc = &CollectedFlow{Key: f.Key, FirstMs: f.FirstMs}
		c.flows[f.Key] = acc
	}
	acc.Packets += f.Packets
	acc.Bytes += f.Bytes
	acc.RevPackets += f.RevPackets
	acc.RevBytes += f.RevBytes
	if f.FirstMs != 0 && (acc.FirstMs == 0 || f.FirstMs < acc.FirstMs) {
		acc.FirstMs = f.FirstMs
	}
	if f.LastMs > acc.LastMs {
		acc.LastMs = f.LastMs
	}
	if f.OutPort != 0 {
		acc.OutPort = f.OutPort
	}
	acc.EndReason = f.EndReason
	acc.Records++
}

// beUint reads an unsigned number of any width big-endian: RFC 7011's
// reduced-size encoding. Past eight bytes only the low 64 bits are kept.
func beUint(v []byte) uint64 {
	var n uint64
	for _, b := range v {
		n = n<<8 | uint64(b)
	}
	return n
}

// Totals returns the (packets, bytes) sums over every exported flow
// record, forward plus reverse — the figure that must match the
// datapath counters exactly once everything is flushed.
func (c *Collector) Totals() (packets, bytes uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totalPackets, c.totalBytes
}

// Stats returns (messages, flow records, samples, decode errors).
func (c *Collector) Stats() (messages, records, samples, errs uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.messages, c.records, c.samples, c.decodeErrs
}

// Flows returns the accumulated flows sorted by total bytes
// (forward + reverse) descending.
func (c *Collector) Flows() []CollectedFlow {
	c.mu.Lock()
	out := make([]CollectedFlow, 0, len(c.flows))
	for _, f := range c.flows {
		out = append(out, *f)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		bi, bj := out[i].Bytes+out[i].RevBytes, out[j].Bytes+out[j].RevBytes
		if bi != bj {
			return bi > bj
		}
		return keyLess(out[i].Key, out[j].Key)
	})
	return out
}

// keyLess orders flows of equal size field by field. It formats
// nothing: a full collector sorts maxCollectedFlows keys per refresh.
func keyLess(a, b FlowKey) bool {
	return cmp.Or(
		cmp.Compare(a.InPort, b.InPort),
		bytes.Compare(a.EthSrc[:], b.EthSrc[:]),
		bytes.Compare(a.EthDst[:], b.EthDst[:]),
		cmp.Compare(a.EthType, b.EthType),
		cmp.Compare(a.VLANID, b.VLANID),
		bytes.Compare(a.IPSrc[:], b.IPSrc[:]),
		cmp.Compare(a.L4Src, b.L4Src),
		bytes.Compare(a.IPDst[:], b.IPDst[:]),
		cmp.Compare(a.L4Dst, b.L4Dst),
		cmp.Compare(a.Proto, b.Proto),
	) < 0
}

// Top returns the n biggest flows by total bytes.
func (c *Collector) Top(n int) []CollectedFlow {
	fl := c.Flows()
	if len(fl) > n {
		fl = fl[:n]
	}
	return fl
}

// ServeUDP reads exported messages from pc and consumes them until the
// socket is closed — the receive loop of cmd/flowtop. Decode errors
// are counted, not fatal.
func (c *Collector) ServeUDP(pc net.PacketConn) error {
	buf := make([]byte, 1<<16)
	for {
		n, _, err := pc.ReadFrom(buf)
		if err != nil {
			return err
		}
		msg := make([]byte, n)
		copy(msg, buf[:n])
		c.Consume(msg) //nolint:errcheck // counted in decodeErrs
	}
}
