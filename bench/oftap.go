package main

import (
	"encoding/binary"
	"io"
)

// OpenFlow message types the tap reports on (ofp_type).
const (
	ofPacketIn  = 10
	ofPacketOut = 13
	ofFlowMod   = 14
)

// ofHeaderLen is the fixed OpenFlow header: version, type, length, xid.
const ofHeaderLen = 8

// ofTap follows one direction of an OpenFlow byte stream and reports
// the type of every message as soon as its header is complete,
// however the stream is cut into reads and writes. It reads headers
// only; bodies are skipped by their declared length.
type ofTap struct {
	hdr  [ofHeaderLen]byte
	have int // header bytes collected so far
	skip int // body bytes still to pass
	on   func(msgType uint8)
}

func (t *ofTap) feed(p []byte) {
	for len(p) > 0 {
		if t.skip > 0 {
			n := min(t.skip, len(p))
			t.skip -= n
			p = p[n:]
			continue
		}
		n := copy(t.hdr[t.have:], p)
		t.have += n
		p = p[n:]
		if t.have == ofHeaderLen {
			t.on(t.hdr[1])
			t.skip = max(int(binary.BigEndian.Uint16(t.hdr[2:4]))-ofHeaderLen, 0)
			t.have = 0
		}
	}
}

// tapConn is the switch's end of the control channel with a tap on
// each direction: what the switch writes (PACKET_IN) and what it reads
// (FLOW_MOD, PACKET_OUT).
type tapConn struct {
	io.ReadWriteCloser
	rd, wr ofTap
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Read(p)
	c.rd.feed(p[:n])
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	// Stamp before the bytes move: the peer may finish reading, and
	// even answer, before Write returns on an unbuffered pipe.
	c.wr.feed(p)
	return c.ReadWriteCloser.Write(p)
}
