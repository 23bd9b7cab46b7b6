package pkt

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// DNS record types and classes (the subset the parental-control use
// case needs).
const (
	DNSTypeA     uint16 = 1
	DNSTypeCNAME uint16 = 5
	DNSTypeAAAA  uint16 = 28
	DNSClassIN   uint16 = 1
)

// DNS response codes.
const (
	DNSRcodeNoError  uint8 = 0
	DNSRcodeNXDomain uint8 = 3
	DNSRcodeRefused  uint8 = 5
)

// DNSQuestion is one question section entry.
type DNSQuestion struct {
	Name  string
	Type  uint16
	Class uint16
}

// DNSAnswer is one resource record. Only A records carry a decoded
// address; other types keep raw RDATA.
type DNSAnswer struct {
	Name  string
	Type  uint16
	Class uint16
	TTL   uint32
	A     IPv4   // valid when Type == DNSTypeA
	Data  []byte // raw RDATA for other types
}

// DNS is a DNS message (RFC 1035), supporting the query/A-answer subset
// used by the parental-control demo: compression pointers are followed
// on decode but never emitted on encode.
type DNS struct {
	ID        uint16
	QR        bool // true = response
	Opcode    uint8
	AA        bool
	TC        bool
	RD        bool
	RA        bool
	Rcode     uint8
	Questions []DNSQuestion
	Answers   []DNSAnswer
}

// DecodeFromBytes parses the whole message in data.
func (d *DNS) DecodeFromBytes(data []byte) error {
	if len(data) < 12 {
		return errTruncated("DNS")
	}
	d.ID = binary.BigEndian.Uint16(data[0:2])
	flags := binary.BigEndian.Uint16(data[2:4])
	d.QR = flags&0x8000 != 0
	d.Opcode = uint8(flags >> 11 & 0xf)
	d.AA = flags&0x0400 != 0
	d.TC = flags&0x0200 != 0
	d.RD = flags&0x0100 != 0
	d.RA = flags&0x0080 != 0
	d.Rcode = uint8(flags & 0xf)
	qd := int(binary.BigEndian.Uint16(data[4:6]))
	an := int(binary.BigEndian.Uint16(data[6:8]))
	// NS and AR counts parsed but records ignored.
	off := 12
	d.Questions = d.Questions[:0]
	d.Answers = d.Answers[:0]
	for i := 0; i < qd; i++ {
		name, n, err := decodeDNSName(data, off)
		if err != nil {
			return err
		}
		off += n
		if off+4 > len(data) {
			return errTruncated("DNS")
		}
		d.Questions = append(d.Questions, DNSQuestion{
			Name:  name,
			Type:  binary.BigEndian.Uint16(data[off : off+2]),
			Class: binary.BigEndian.Uint16(data[off+2 : off+4]),
		})
		off += 4
	}
	for i := 0; i < an; i++ {
		name, n, err := decodeDNSName(data, off)
		if err != nil {
			return err
		}
		off += n
		if off+10 > len(data) {
			return errTruncated("DNS")
		}
		ans := DNSAnswer{
			Name:  name,
			Type:  binary.BigEndian.Uint16(data[off : off+2]),
			Class: binary.BigEndian.Uint16(data[off+2 : off+4]),
			TTL:   binary.BigEndian.Uint32(data[off+4 : off+8]),
		}
		rdlen := int(binary.BigEndian.Uint16(data[off+8 : off+10]))
		off += 10
		if off+rdlen > len(data) {
			return errTruncated("DNS")
		}
		rdata := data[off : off+rdlen]
		if ans.Type == DNSTypeA && rdlen == 4 {
			copy(ans.A[:], rdata)
		} else {
			ans.Data = rdata
		}
		off += rdlen
		d.Answers = append(d.Answers, ans)
	}
	return nil
}

// decodeDNSName reads a possibly-compressed name starting at off and
// returns the dotted name and the number of bytes the name occupies at
// off (compression targets do not count).
func decodeDNSName(data []byte, off int) (string, int, error) {
	var sb strings.Builder
	consumed := 0
	jumped := false
	pos := off
	for hops := 0; ; hops++ {
		if hops > 64 {
			return "", 0, &decodeError{header: "DNS", msg: "name compression loop"}
		}
		if pos >= len(data) {
			return "", 0, errTruncated("DNS")
		}
		l := int(data[pos])
		switch {
		case l == 0:
			if !jumped {
				consumed = pos - off + 1
			}
			return sb.String(), consumed, nil
		case l&0xc0 == 0xc0: // compression pointer
			if pos+1 >= len(data) {
				return "", 0, errTruncated("DNS")
			}
			if !jumped {
				consumed = pos - off + 2
				jumped = true
			}
			pos = int(data[pos]&0x3f)<<8 | int(data[pos+1])
		default:
			if pos+1+l > len(data) {
				return "", 0, errTruncated("DNS")
			}
			if sb.Len() > 0 {
				sb.WriteByte('.')
			}
			sb.Write(data[pos+1 : pos+1+l])
			pos += 1 + l
		}
	}
}

func encodeDNSName(name string) ([]byte, error) {
	if name == "" {
		return []byte{0}, nil
	}
	var out []byte
	for _, label := range strings.Split(name, ".") {
		if len(label) == 0 || len(label) > 63 {
			return nil, fmt.Errorf("pkt: bad DNS label %q", label)
		}
		out = append(out, byte(len(label)))
		out = append(out, label...)
	}
	return append(out, 0), nil
}

// SerializeTo implements SerializableLayer.
func (d *DNS) SerializeTo(b *SerializeBuffer) error {
	// Build into a scratch slice first (names are variable length).
	var body []byte
	for _, q := range d.Questions {
		n, err := encodeDNSName(q.Name)
		if err != nil {
			return err
		}
		body = append(body, n...)
		body = append(body, byte(q.Type>>8), byte(q.Type), byte(q.Class>>8), byte(q.Class))
	}
	for _, a := range d.Answers {
		n, err := encodeDNSName(a.Name)
		if err != nil {
			return err
		}
		body = append(body, n...)
		var rdata []byte
		if a.Type == DNSTypeA {
			rdata = a.A[:]
		} else {
			rdata = a.Data
		}
		fixed := make([]byte, 10)
		binary.BigEndian.PutUint16(fixed[0:2], a.Type)
		binary.BigEndian.PutUint16(fixed[2:4], a.Class)
		binary.BigEndian.PutUint32(fixed[4:8], a.TTL)
		binary.BigEndian.PutUint16(fixed[8:10], uint16(len(rdata)))
		body = append(body, fixed...)
		body = append(body, rdata...)
	}
	hdr := b.PrependBytes(12 + len(body))
	binary.BigEndian.PutUint16(hdr[0:2], d.ID)
	var flags uint16
	if d.QR {
		flags |= 0x8000
	}
	flags |= uint16(d.Opcode&0xf) << 11
	if d.AA {
		flags |= 0x0400
	}
	if d.TC {
		flags |= 0x0200
	}
	if d.RD {
		flags |= 0x0100
	}
	if d.RA {
		flags |= 0x0080
	}
	flags |= uint16(d.Rcode & 0xf)
	binary.BigEndian.PutUint16(hdr[2:4], flags)
	binary.BigEndian.PutUint16(hdr[4:6], uint16(len(d.Questions)))
	binary.BigEndian.PutUint16(hdr[6:8], uint16(len(d.Answers)))
	binary.BigEndian.PutUint16(hdr[8:10], 0)
	binary.BigEndian.PutUint16(hdr[10:12], 0)
	copy(hdr[12:], body)
	return nil
}

// String summarizes the message for diagnostics.
func (d *DNS) String() string {
	kind := "query"
	if d.QR {
		kind = "response"
	}
	var names []string
	for _, q := range d.Questions {
		names = append(names, q.Name)
	}
	return fmt.Sprintf("DNS %s id=%d rcode=%d %s", kind, d.ID, d.Rcode, strings.Join(names, ","))
}
