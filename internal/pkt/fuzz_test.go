package pkt

import (
	"bytes"
	"testing"
)

// Native fuzz targets: the decoders must never panic and, where a
// round trip exists, must reproduce their input. `go test` runs the
// seed corpus; `go test -fuzz=FuzzDecodeEthernet ./internal/pkt` digs
// deeper.

func FuzzDecodeEthernet(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, EthernetHeaderLen))
	seed, _ := Serialize(
		&Ethernet{Src: MustMAC("02:00:00:00:00:01"), Dst: MustMAC("02:00:00:00:00:02"), EtherType: EtherTypeIPv4},
		&IPv4Header{TTL: 64, Protocol: IPProtoUDP, Src: MustIPv4("10.0.0.1"), Dst: MustIPv4("10.0.0.2")},
		&UDP{SrcPort: 53, DstPort: 53},
		&DNS{ID: 1, Questions: []DNSQuestion{{Name: "a.b", Type: DNSTypeA, Class: DNSClassIN}}},
	)
	f.Add(seed)
	tagged, _ := PushVLAN(seed, EtherTypeDot1Q, 101)
	f.Add(tagged)

	f.Fuzz(func(t *testing.T, data []byte) {
		p := DecodeEthernet(data)
		_ = p.String() // must not panic either
		var k Key
		_ = ExtractKey(data, 1, &k)
	})
}

func FuzzVLANPushPop(f *testing.F) {
	base, _ := Serialize(
		&Ethernet{Src: MustMAC("02:00:00:00:00:01"), Dst: MustMAC("02:00:00:00:00:02"), EtherType: EtherTypeIPv4},
		&IPv4Header{TTL: 64, Protocol: IPProtoUDP, Src: MustIPv4("10.0.0.1"), Dst: MustIPv4("10.0.0.2")},
		&UDP{SrcPort: 1, DstPort: 2},
	)
	f.Add(base, uint16(101))
	f.Fuzz(func(t *testing.T, data []byte, vid uint16) {
		vid &= 0x0fff
		tagged, err := PushVLAN(data, EtherTypeDot1Q, vid)
		if err != nil {
			return // short frames legitimately fail
		}
		got, ok := VLANID(tagged)
		if !ok || got != vid {
			t.Fatalf("VLANID after push: %d %v", got, ok)
		}
		popped, err := PopVLAN(tagged)
		if err != nil {
			t.Fatalf("pop after push: %v", err)
		}
		if !bytes.Equal(popped, data) {
			t.Fatal("push+pop altered the frame")
		}
	})
}

// FuzzVLANOwned holds the in-place mutators to an independent
// reference and to their copying forms, byte for byte, at every spare
// capacity from 0 to 8 — both sides of the "allocate only when
// cap-len < 4" branch — and checks the ownership boundary: nothing
// behind the frame's capacity is ever written, so a frame clipped out of
// a larger buffer (f[:n:n]) cannot reach its neighbour.
func FuzzVLANOwned(f *testing.F) {
	base, _ := Serialize(
		&Ethernet{Src: MustMAC("02:00:00:00:00:01"), Dst: MustMAC("02:00:00:00:00:02"), EtherType: EtherTypeIPv4},
		&IPv4Header{TTL: 64, Protocol: IPProtoUDP, Src: MustIPv4("10.0.0.1"), Dst: MustIPv4("10.0.0.2")},
		&UDP{SrcPort: 1, DstPort: 2},
	)
	tagged, _ := PushVLAN(base, EtherTypeDot1Q, 101)
	f.Add(base, uint16(101))
	f.Add(tagged, uint16(102))
	f.Add(base[:EthernetHeaderLen], uint16(1))
	f.Add(tagged[:EthernetHeaderLen+Dot1QHeaderLen-1], uint16(1))
	f.Add([]byte{}, uint16(0))

	const guard = 16
	// owned lays data out as a frame with the given spare capacity inside
	// a larger buffer whose remaining bytes are a sentinel.
	owned := func(data []byte, spare int) (frame, buf []byte) {
		buf = bytes.Repeat([]byte{0xa5}, len(data)+spare+guard)
		copy(buf, data)
		return buf[: len(data) : len(data)+spare], buf
	}
	intact := func(t *testing.T, op string, buf []byte, n, spare int) {
		t.Helper()
		if tail := buf[n+spare:]; !bytes.Equal(tail, bytes.Repeat([]byte{0xa5}, len(tail))) {
			t.Fatalf("%s with %d spare bytes wrote behind the frame's capacity: %x", op, spare, tail)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, vid uint16) {
		var wantPush, wantPop []byte
		var pushErr, popErr error
		if len(data) < EthernetHeaderLen {
			pushErr = ErrTooShort
		} else {
			wantPush = append(append([]byte{}, data[:12]...), byte(EtherTypeDot1Q>>8), byte(EtherTypeDot1Q&0xff), byte(vid>>8)&0x0f, byte(vid))
			wantPush = append(wantPush, data[12:]...)
		}
		switch {
		case len(data) < EthernetHeaderLen+Dot1QHeaderLen:
			popErr = ErrTooShort
		case !HasVLAN(data):
			popErr = ErrNoVLAN
		default:
			wantPop = append(append([]byte{}, data[:12]...), data[16:]...)
		}

		orig := append([]byte{}, data...)
		got, err := PushVLAN(data, EtherTypeDot1Q, vid)
		if err != pushErr || !bytes.Equal(got, wantPush) {
			t.Fatalf("PushVLAN = %x, %v; want %x, %v", got, err, wantPush, pushErr)
		}
		got, err = PopVLAN(data)
		if err != popErr || !bytes.Equal(got, wantPop) {
			t.Fatalf("PopVLAN = %x, %v; want %x, %v", got, err, wantPop, popErr)
		}
		if !bytes.Equal(data, orig) {
			t.Fatal("a copying form modified its input")
		}

		for spare := 0; spare <= 8; spare++ {
			frame, buf := owned(data, spare)
			got, err := PushVLANOwned(frame, EtherTypeDot1Q, vid)
			if err != pushErr || !bytes.Equal(got, wantPush) {
				t.Fatalf("PushVLANOwned with %d spare bytes = %x, %v; want %x, %v", spare, got, err, wantPush, pushErr)
			}
			intact(t, "PushVLANOwned", buf, len(data), spare)
			if err == nil {
				if inPlace := &got[0] == &buf[0]; inPlace != (spare >= Dot1QHeaderLen) {
					t.Fatalf("PushVLANOwned with %d spare bytes: in place = %v", spare, inPlace)
				}
			}

			frame, buf = owned(data, spare)
			got, err = PopVLANOwned(frame)
			if err != popErr || !bytes.Equal(got, wantPop) {
				t.Fatalf("PopVLANOwned with %d spare bytes = %x, %v; want %x, %v", spare, got, err, wantPop, popErr)
			}
			intact(t, "PopVLANOwned", buf, len(data), spare)
			if err == nil {
				if &got[0] != &buf[Dot1QHeaderLen] || cap(got)-len(got) != spare {
					t.Fatalf("PopVLANOwned with %d spare bytes moved the frame or lost its spare capacity (%d left)", spare, cap(got)-len(got))
				}
			}
		}
	})
}

// FuzzFlatKey holds the packed key the one parser writes to what the
// flow cache and the classifier assume of it: the parser never panics;
// unpacking any parsed key and packing it again gives back its words, so
// the two forms tell the same keys apart; once the headers have parsed
// down to a transport, ICMP or ARP header the key is a function of those
// headers alone — frames differing only behind them pack equal; SetAnd
// and Equal compute what And and == do.
func FuzzFlatKey(f *testing.F) {
	for _, hdr := range keySeeds() {
		f.Add(hdr, []byte("payload"), []byte{0xff})
	}
	f.Fuzz(func(t *testing.T, hdr, a, b []byte) {
		var w0, wa, wb FlatKey
		err := ExtractFlat(hdr, 7, &w0)
		_ = ExtractFlat(append(append([]byte{}, hdr...), a...), 7, &wa)
		_ = ExtractFlat(append(append([]byte{}, hdr...), b...), 7, &wb)
		var k0 Key
		var back FlatKey
		w0.Unpack(&k0)
		if k0.FlatInto(&back); back != w0 {
			t.Fatalf("unpacking %x and packing it again gives %x (%+v)", w0, back, k0)
		}
		// The in-place forms the batch probe uses agree with And and ==.
		var p FlatKey
		if p.SetAnd(&wa, &wb); p != wa.And(&wb) || wa.Equal(&wb) != (wa == wb) || !p.Equal(&p) {
			t.Fatalf("SetAnd/Equal disagree with And/== on %x, %x", wa, wb)
		}
		if err == nil && (k0.HasL4 || k0.HasICMP || k0.HasARP) && (wa != w0 || wb != w0) {
			t.Fatalf("payload changed the packed key of %+v: %x, %x, %x", k0, w0, wa, wb)
		}
	})
}

// FuzzExtractMatchesDecode holds the one parser the datapath trusts to
// the full decoder: for any bytes, the key ExtractFlat packs is the key
// read off the headers DecodeEthernet produces, and ExtractKey unpacks it.
func FuzzExtractMatchesDecode(f *testing.F) {
	for _, hdr := range keySeeds() {
		f.Add(hdr)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want FlatKey
		err := ExtractFlat(data, 7, &got)
		p := DecodeEthernet(data)
		k, ok := keyFromHeaders(p, 7)
		if ok != (err == nil) {
			t.Fatalf("%x: ExtractFlat error %v, DecodeEthernet %v", data, err, p)
		}
		if k.FlatInto(&want); got != want {
			t.Fatalf("%x: ExtractFlat packs %x, the decoded headers %x\ndecoded: %v\nwant %+v", data, got, want, p, k)
		}
		var viaKey Key
		if _ = ExtractKey(data, 7, &viaKey); viaKey != k {
			t.Fatalf("%x: ExtractKey %+v, the decoded headers %+v", data, viaKey, k)
		}
	})
}

// keyFromHeaders is the reference key: the matchable fields of the
// headers DecodeEthernet produced, ok false when not even Ethernet
// decoded. The EtherType is the innermost the decoder read; one that
// names a tag the frame ends inside is unknown (0).
func keyFromHeaders(p *Packet, inPort uint32) (k Key, ok bool) {
	k.InPort = inPort
	eth := p.Ethernet()
	if eth == nil {
		return k, false
	}
	k.EthDst, k.EthSrc, k.EthType = eth.Dst, eth.Src, eth.EtherType
	if len(p.tags) > 0 {
		k.HasVLAN, k.VLANID, k.VLANPCP = true, p.tags[0].VLANID, p.tags[0].Priority
		k.EthType = p.tags[len(p.tags)-1].EtherType
	}
	if l := p.ipv4; l != nil {
		k.HasIPv4, k.IPProto, k.IPSrc, k.IPDst = true, l.Protocol, l.Src, l.Dst
	}
	if l := p.ipv6; l != nil {
		k.HasIPv6, k.IPProto = true, l.NextHeader
	}
	if l := p.arp; l != nil {
		k.HasARP, k.ARPOp, k.ARPSPA, k.ARPTPA = true, l.Op, l.SenderIP, l.TargetIP
	}
	if l := p.tcp; l != nil {
		k.HasL4, k.L4Src, k.L4Dst = true, l.SrcPort, l.DstPort
	}
	if l := p.udp; l != nil {
		k.HasL4, k.L4Src, k.L4Dst = true, l.SrcPort, l.DstPort
	}
	if l := p.icmp; l != nil {
		k.HasICMP, k.ICMPType, k.ICMPCode = true, l.Type, l.Code
	}
	if k.EthType == EtherTypeDot1Q || k.EthType == EtherTypeQinQ {
		k.EthType = 0
	}
	return k, true
}

// keySeeds are frames of every shape the parser tells apart, whole and
// cut short.
func keySeeds() [][]byte {
	eth := func(et uint16) *Ethernet {
		return &Ethernet{Src: MustMAC("02:00:00:00:00:01"), Dst: MustMAC("02:00:00:00:00:02"), EtherType: et}
	}
	ip := func(proto uint8) *IPv4Header {
		return &IPv4Header{TTL: 64, TOS: 0x2e, Protocol: proto, Src: MustIPv4("10.0.0.1"), Dst: MustIPv4("10.0.0.2")}
	}
	udp, _ := Serialize(eth(EtherTypeIPv4), ip(IPProtoUDP), &UDP{SrcPort: 1, DstPort: 2})
	tagged, _ := PushVLAN(udp, EtherTypeDot1Q, 101)
	qinq, _ := PushVLAN(tagged, EtherTypeQinQ, 7)
	tcp, _ := Serialize(eth(EtherTypeIPv4), ip(IPProtoTCP), &TCP{SrcPort: 3, DstPort: 80})
	icmp, _ := Serialize(eth(EtherTypeIPv4), ip(IPProtoICMP), &ICMPv4{Type: ICMPv4EchoRequest})
	arp, _ := Serialize(eth(EtherTypeARP),
		&ARP{Op: ARPRequest, SenderHW: MustMAC("02:00:00:00:00:01"), SenderIP: MustIPv4("10.0.0.1"), TargetIP: MustIPv4("10.0.0.2")})
	v6, _ := Serialize(eth(EtherTypeIPv6), &IPv6Header{NextHeader: IPProtoTCP, HopLimit: 64}, &TCP{SrcPort: 5, DstPort: 6})
	// An IPv4 header alone, padded to the minimum frame: the padding is
	// no UDP header.
	padded, _ := Serialize(eth(EtherTypeIPv4), ip(IPProtoUDP))
	padded = append(padded, make([]byte, MinFrameLen-len(padded))...)
	return [][]byte{udp, tagged, qinq, tcp, icmp, arp, v6, padded,
		udp[:EthernetHeaderLen+IPv4MinHeaderLen+4], qinq[:EthernetHeaderLen+2], udp[:9], {}}
}

func FuzzDNSDecode(f *testing.F) {
	msg, _ := Serialize(&DNS{ID: 7, QR: true, Questions: []DNSQuestion{{Name: "x.y", Type: DNSTypeA, Class: DNSClassIN}},
		Answers: []DNSAnswer{{Name: "x.y", Type: DNSTypeA, Class: DNSClassIN, TTL: 1, A: IPv4{1, 2, 3, 4}}}})
	f.Add(msg)
	f.Add([]byte{0, 1, 0x81, 0x80, 0, 1, 0, 1, 0, 0, 0, 0, 0xc0, 0x0c})
	f.Fuzz(func(t *testing.T, data []byte) {
		var d DNS
		_ = d.DecodeFromBytes(data) // must not panic or loop forever
	})
}
