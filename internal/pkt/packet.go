package pkt

import (
	"fmt"
	"strings"
)

// Packet is a fully decoded frame: an ordered stack of layers plus the
// raw bytes it was decoded from. Decoding is eager; a failed layer
// terminates the stack and is reported by Err.
type Packet struct {
	data   []byte
	layers []Layer
	err    error
}

// Decode parses data starting at the given first layer type. The
// returned Packet always contains the layers decoded before any error.
// data is NOT copied; the caller must not mutate it while the Packet is
// in use (the dataplane hands frames over by ownership transfer, so
// this is the gopacket NoCopy model).
func Decode(data []byte, first LayerType) *Packet {
	p := &Packet{data: data}
	rest := data
	next := first
	for next != LayerTypeNone && next != LayerTypePayload {
		l := newLayer(next)
		if l == nil {
			break
		}
		if err := l.DecodeFromBytes(rest); err != nil {
			p.err = err
			return p
		}
		p.layers = append(p.layers, l)
		rest = l.LayerPayload()
		next = l.NextLayerType()
		if len(rest) == 0 {
			return p
		}
	}
	if len(rest) > 0 {
		pl := Payload(rest)
		p.layers = append(p.layers, &pl)
	}
	return p
}

// DecodeEthernet decodes a frame starting from the Ethernet header.
func DecodeEthernet(data []byte) *Packet { return Decode(data, LayerTypeEthernet) }

func newLayer(t LayerType) Layer {
	switch t {
	case LayerTypeEthernet:
		return &Ethernet{}
	case LayerTypeDot1Q:
		return &Dot1Q{}
	case LayerTypeARP:
		return &ARP{}
	case LayerTypeIPv4:
		return &IPv4Header{}
	case LayerTypeIPv6:
		return &IPv6Header{}
	case LayerTypeTCP:
		return &TCP{}
	case LayerTypeUDP:
		return &UDP{}
	case LayerTypeICMPv4:
		return &ICMPv4{}
	case LayerTypeDNS:
		return &DNS{}
	}
	return nil
}

// Err returns the decode error encountered, if any. Layers decoded
// before the error are still available.
func (p *Packet) Err() error { return p.err }

// Layer returns the first layer of the given type, or nil.
func (p *Packet) Layer(t LayerType) Layer {
	for _, l := range p.layers {
		if l.LayerType() == t {
			return l
		}
	}
	return nil
}

// Ethernet returns the Ethernet layer, or nil.
func (p *Packet) Ethernet() *Ethernet {
	if l := p.Layer(LayerTypeEthernet); l != nil {
		return l.(*Ethernet)
	}
	return nil
}

// IPv4 returns the IPv4 layer, or nil.
func (p *Packet) IPv4() *IPv4Header {
	if l := p.Layer(LayerTypeIPv4); l != nil {
		return l.(*IPv4Header)
	}
	return nil
}

// ARP returns the ARP layer, or nil.
func (p *Packet) ARP() *ARP {
	if l := p.Layer(LayerTypeARP); l != nil {
		return l.(*ARP)
	}
	return nil
}

// TCP returns the TCP layer, or nil.
func (p *Packet) TCP() *TCP {
	if l := p.Layer(LayerTypeTCP); l != nil {
		return l.(*TCP)
	}
	return nil
}

// UDP returns the UDP layer, or nil.
func (p *Packet) UDP() *UDP {
	if l := p.Layer(LayerTypeUDP); l != nil {
		return l.(*UDP)
	}
	return nil
}

// ICMPv4 returns the ICMPv4 layer, or nil.
func (p *Packet) ICMPv4() *ICMPv4 {
	if l := p.Layer(LayerTypeICMPv4); l != nil {
		return l.(*ICMPv4)
	}
	return nil
}

// DNS returns the DNS layer, or nil.
func (p *Packet) DNS() *DNS {
	if l := p.Layer(LayerTypeDNS); l != nil {
		return l.(*DNS)
	}
	return nil
}

// ApplicationPayload returns the innermost opaque payload bytes, or nil.
func (p *Packet) ApplicationPayload() []byte {
	if len(p.layers) == 0 {
		return nil
	}
	last := p.layers[len(p.layers)-1]
	if pl, ok := last.(*Payload); ok {
		return []byte(*pl)
	}
	return nil
}

// String renders a one-line-per-layer summary, handy in test failures
// and the capture tooling.
func (p *Packet) String() string {
	var sb strings.Builder
	for i, l := range p.layers {
		if i > 0 {
			sb.WriteString(" / ")
		}
		if s, ok := l.(fmt.Stringer); ok {
			sb.WriteString(s.String())
		} else {
			sb.WriteString(l.LayerType().String())
		}
	}
	if p.err != nil {
		fmt.Fprintf(&sb, " [decode error: %v]", p.err)
	}
	return sb.String()
}
