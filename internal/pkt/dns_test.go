package pkt

import (
	"testing"
)

func TestDNSQueryRoundTrip(t *testing.T) {
	q := &DNS{
		ID: 0x1234, RD: true,
		Questions: []DNSQuestion{{Name: "www.example.com", Type: DNSTypeA, Class: DNSClassIN}},
	}
	raw, err := Serialize(q)
	if err != nil {
		t.Fatal(err)
	}
	var got DNS
	if err := got.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if got.ID != 0x1234 || got.QR || !got.RD {
		t.Errorf("header: %+v", got)
	}
	if len(got.Questions) != 1 || got.Questions[0].Name != "www.example.com" ||
		got.Questions[0].Type != DNSTypeA {
		t.Errorf("questions: %+v", got.Questions)
	}
}

func TestDNSResponseRoundTrip(t *testing.T) {
	r := &DNS{
		ID: 7, QR: true, AA: true, RA: true, Rcode: DNSRcodeNoError,
		Questions: []DNSQuestion{{Name: "blocked.example.net", Type: DNSTypeA, Class: DNSClassIN}},
		Answers: []DNSAnswer{{
			Name: "blocked.example.net", Type: DNSTypeA, Class: DNSClassIN,
			TTL: 300, A: MustIPv4("93.184.216.34"),
		}},
	}
	raw, err := Serialize(r)
	if err != nil {
		t.Fatal(err)
	}
	var got DNS
	if err := got.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if !got.QR || !got.AA || got.Rcode != DNSRcodeNoError {
		t.Errorf("flags: %+v", got)
	}
	if len(got.Answers) != 1 || got.Answers[0].A != MustIPv4("93.184.216.34") ||
		got.Answers[0].TTL != 300 {
		t.Errorf("answers: %+v", got.Answers)
	}
}

func TestDNSNXDomain(t *testing.T) {
	r := &DNS{ID: 9, QR: true, Rcode: DNSRcodeNXDomain,
		Questions: []DNSQuestion{{Name: "nope.invalid", Type: DNSTypeA, Class: DNSClassIN}}}
	raw, err := Serialize(r)
	if err != nil {
		t.Fatal(err)
	}
	var got DNS
	if err := got.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if got.Rcode != DNSRcodeNXDomain || len(got.Answers) != 0 {
		t.Errorf("%+v", got)
	}
}

func TestDNSCompressionPointers(t *testing.T) {
	// Hand-crafted response using a compression pointer for the answer
	// name (0xc00c points at offset 12, the question name).
	raw := []byte{
		0x00, 0x01, // ID
		0x81, 0x80, // QR|RD|RA
		0x00, 0x01, // QDCOUNT
		0x00, 0x01, // ANCOUNT
		0x00, 0x00, 0x00, 0x00, // NS, AR
		// question: example.com A IN
		7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 3, 'c', 'o', 'm', 0,
		0x00, 0x01, 0x00, 0x01,
		// answer: pointer to offset 12
		0xc0, 0x0c,
		0x00, 0x01, 0x00, 0x01, // A IN
		0x00, 0x00, 0x00, 0x3c, // TTL 60
		0x00, 0x04, // RDLENGTH
		1, 2, 3, 4,
	}
	var d DNS
	if err := d.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if len(d.Answers) != 1 || d.Answers[0].Name != "example.com" {
		t.Fatalf("answers: %+v", d.Answers)
	}
	if d.Answers[0].A != (IPv4{1, 2, 3, 4}) {
		t.Errorf("A = %v", d.Answers[0].A)
	}
}

func TestDNSCompressionLoopDetected(t *testing.T) {
	raw := []byte{
		0, 1, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0,
		0xc0, 0x0c, // pointer to itself
		0, 1, 0, 1,
	}
	var d DNS
	if err := d.DecodeFromBytes(raw); err == nil {
		t.Error("expected loop detection error")
	}
}

func TestDNSOverUDPDecode(t *testing.T) {
	dns := &DNS{ID: 42, RD: true,
		Questions: []DNSQuestion{{Name: "site.test", Type: DNSTypeA, Class: DNSClassIN}}}
	frame, err := Serialize(
		&Ethernet{Src: testSrcMAC, Dst: testDstMAC, EtherType: EtherTypeIPv4},
		&IPv4Header{TTL: 64, Protocol: IPProtoUDP, Src: testSrcIP, Dst: testDstIP},
		&UDP{SrcPort: 5353, DstPort: 53},
		dns,
	)
	if err != nil {
		t.Fatal(err)
	}
	p := DecodeEthernet(frame)
	got := p.DNS()
	if got == nil {
		t.Fatalf("no DNS layer: %s", p)
	}
	if got.ID != 42 || got.Questions[0].Name != "site.test" {
		t.Errorf("decoded: %+v", got)
	}
}

func TestDNSBadLabel(t *testing.T) {
	d := &DNS{Questions: []DNSQuestion{{Name: "bad..label", Type: DNSTypeA, Class: DNSClassIN}}}
	if _, err := Serialize(d); err == nil {
		t.Error("expected error for empty label")
	}
}
