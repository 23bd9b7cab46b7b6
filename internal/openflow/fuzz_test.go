package openflow

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParse hardens the wire decoder: arbitrary framed bytes must
// never panic, and what it accepts the encoder must carry: the message
// re-encodes, the re-encoding parses to an equal message, and appending
// it to a prefix leaves the prefix as it was.
func FuzzParse(f *testing.F) {
	for _, m := range []Message{
		&Hello{}, &EchoRequest{Data: []byte("x")},
		&FeaturesReply{DatapathID: 1, NTables: 2},
		&BarrierRequest{},
		&RoleRequest{Role: RoleMaster, GenerationID: 7},
		&RoleReply{Role: RoleSlave, GenerationID: 9},
		&SetAsync{AsyncConfig: DefaultAsyncConfig()},
		&GetAsyncRequest{},
		&GetAsyncReply{AsyncConfig: DefaultAsyncConfig()},
	} {
		m.SetXID(1)
		if frame, err := m.Marshal(); err == nil {
			f.Add(frame)
		}
	}
	fm := &FlowMod{Command: FlowAdd, BufferID: NoBuffer, OutPort: PortAny, OutGroup: GroupAny}
	fm.Match.WithInPort(1).WithVLAN(101)
	fm.Instructions = []Instruction{&InstrApplyActions{Actions: []Action{&ActionOutput{Port: 2, MaxLen: 0xffff}}}}
	fm.SetXID(2)
	if frame, err := fm.Marshal(); err == nil {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 {
			// Force plausible framing so body decoders run.
			data[0] = Version
			data[2] = byte(len(data) >> 8)
			data[3] = byte(len(data))
		}
		m, err := Parse(data)
		if err != nil || m == nil {
			return
		}
		wire, err := m.AppendTo(nil)
		if err != nil {
			t.Fatalf("Parse accepted what AppendTo rejects: %v\n%+v", err, m)
		}
		again, err := Parse(wire)
		if err != nil {
			t.Fatalf("re-encoding does not parse: %v\n%+v", err, m)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("re-encoding parses differently:\n  first  %+v\n  second %+v", m, again)
		}
		prefix := []byte("prefix")
		both, err := m.AppendTo(append(make([]byte, 0, 8), prefix...))
		if err != nil || !bytes.Equal(both[:len(prefix)], prefix) || !bytes.Equal(both[len(prefix):], wire) {
			t.Fatalf("AppendTo(prefix) = %x, %v; want the prefix then %x", both, err, wire)
		}
	})
}
