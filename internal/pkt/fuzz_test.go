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
		p := Decode(data, LayerTypeEthernet)
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

// FuzzFlatKey holds the one parser every cache trusts, and the packing
// the flow cache keys by, to what the cache assumes of them: neither
// panics on any bytes; packing tells two parsed keys apart exactly when
// a matchable field does (IPTOS is not one); and once the headers have
// parsed down to a transport, ICMP or ARP header the key is a function
// of those headers alone — frames differing only behind them pack equal;
// SetAnd and Equal compute what And and == do.
func FuzzFlatKey(f *testing.F) {
	udp, _ := Serialize(
		&Ethernet{Src: MustMAC("02:00:00:00:00:01"), Dst: MustMAC("02:00:00:00:00:02"), EtherType: EtherTypeIPv4},
		&IPv4Header{TTL: 64, TOS: 0x2e, Protocol: IPProtoUDP, Src: MustIPv4("10.0.0.1"), Dst: MustIPv4("10.0.0.2")},
		&UDP{SrcPort: 1, DstPort: 2},
	)
	tagged, _ := PushVLAN(udp, EtherTypeDot1Q, 101)
	icmp, _ := Serialize(
		&Ethernet{Src: MustMAC("02:00:00:00:00:01"), Dst: MustMAC("02:00:00:00:00:02"), EtherType: EtherTypeIPv4},
		&IPv4Header{TTL: 64, Protocol: IPProtoICMP, Src: MustIPv4("10.0.0.1"), Dst: MustIPv4("10.0.0.2")},
		&ICMPv4{Type: ICMPv4EchoRequest},
	)
	arp, _ := Serialize(
		&Ethernet{Src: MustMAC("02:00:00:00:00:01"), Dst: MustMAC("ff:ff:ff:ff:ff:ff"), EtherType: EtherTypeARP},
		&ARP{Op: ARPRequest, SenderHW: MustMAC("02:00:00:00:00:01"), SenderIP: MustIPv4("10.0.0.1"), TargetIP: MustIPv4("10.0.0.2")},
	)
	for _, hdr := range [][]byte{udp, tagged, icmp, arp, udp[:EthernetHeaderLen+IPv4MinHeaderLen+3], udp[:9], {}} {
		f.Add(hdr, []byte("payload"), []byte{0xff})
	}

	flat := func(frame []byte) (Key, FlatKey, error) {
		var k Key
		var w FlatKey
		err := ExtractKey(frame, 7, &k)
		k.FlatInto(&w)
		return k, w, err
	}
	f.Fuzz(func(t *testing.T, hdr, a, b []byte) {
		k0, w0, err := flat(hdr)
		ka, wa, _ := flat(append(append([]byte{}, hdr...), a...))
		kb, wb, _ := flat(append(append([]byte{}, hdr...), b...))
		ka.IPTOS, kb.IPTOS = 0, 0
		if (ka == kb) != (wa == wb) {
			t.Fatalf("keys equal = %v, packed equal = %v:\n %+v -> %x\n %+v -> %x", ka == kb, wa == wb, ka, wa, kb, wb)
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
