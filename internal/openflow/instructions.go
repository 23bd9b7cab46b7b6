package openflow

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Instruction type codes (ofp_instruction_type).
const (
	InstrTypeGotoTable    uint16 = 1
	InstrTypeWriteActions uint16 = 3
	InstrTypeApplyActions uint16 = 4
	InstrTypeClearActions uint16 = 5
	InstrTypeMeter        uint16 = 6
)

// Instruction is one flow-entry instruction.
type Instruction interface {
	// InstrType returns the ofp_instruction_type code.
	InstrType() uint16
	// appendTo appends the instruction's encoding to b.
	appendTo(b []byte) ([]byte, error)
	// String renders the instruction.
	String() string
}

// InstrGotoTable continues the pipeline at another table.
type InstrGotoTable struct {
	TableID uint8
}

// InstrType implements Instruction.
func (i *InstrGotoTable) InstrType() uint16 { return InstrTypeGotoTable }

func (i *InstrGotoTable) appendTo(b []byte) ([]byte, error) {
	return appendTLV8(b, InstrTypeGotoTable, uint32(i.TableID)<<24)
}

// String implements Instruction.
func (i *InstrGotoTable) String() string { return fmt.Sprintf("goto_table:%d", i.TableID) }

// InstrApplyActions executes actions immediately.
type InstrApplyActions struct {
	Actions []Action
}

// InstrType implements Instruction.
func (i *InstrApplyActions) InstrType() uint16 { return InstrTypeApplyActions }

func (i *InstrApplyActions) appendTo(b []byte) ([]byte, error) {
	return appendActionsInstr(b, InstrTypeApplyActions, i.Actions)
}

// appendActionsInstr encodes an instruction that is a header and an
// action list.
func appendActionsInstr(b []byte, typ uint16, actions []Action) ([]byte, error) {
	start := len(b)
	b, _ = appendTLV8(b, typ, 0)
	b, err := appendActions(b, actions)
	if err != nil {
		return nil, err
	}
	putLen16(b, start+2, start)
	return b, nil
}

// String implements Instruction.
func (i *InstrApplyActions) String() string { return "apply(" + actionsString(i.Actions) + ")" }

// InstrWriteActions merges actions into the action set.
type InstrWriteActions struct {
	Actions []Action
}

// InstrType implements Instruction.
func (i *InstrWriteActions) InstrType() uint16 { return InstrTypeWriteActions }

func (i *InstrWriteActions) appendTo(b []byte) ([]byte, error) {
	return appendActionsInstr(b, InstrTypeWriteActions, i.Actions)
}

// String implements Instruction.
func (i *InstrWriteActions) String() string { return "write(" + actionsString(i.Actions) + ")" }

// InstrClearActions empties the action set.
type InstrClearActions struct{}

// InstrType implements Instruction.
func (i *InstrClearActions) InstrType() uint16 { return InstrTypeClearActions }

func (i *InstrClearActions) appendTo(b []byte) ([]byte, error) {
	return appendTLV8(b, InstrTypeClearActions, 0)
}

// String implements Instruction.
func (i *InstrClearActions) String() string { return "clear_actions" }

// InstrMeter directs the packet through a meter first.
type InstrMeter struct {
	MeterID uint32
}

// InstrType implements Instruction.
func (i *InstrMeter) InstrType() uint16 { return InstrTypeMeter }

func (i *InstrMeter) appendTo(b []byte) ([]byte, error) {
	return appendTLV8(b, InstrTypeMeter, i.MeterID)
}

// String implements Instruction.
func (i *InstrMeter) String() string { return fmt.Sprintf("meter:%d", i.MeterID) }

// appendInstructions appends the instruction encodings to b.
func appendInstructions(b []byte, instrs []Instruction) ([]byte, error) {
	var err error
	for _, in := range instrs {
		if b, err = in.appendTo(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// unmarshalInstructions decodes a packed instruction list.
func unmarshalInstructions(data []byte) ([]Instruction, error) {
	var out []Instruction
	for len(data) > 0 {
		if len(data) < 8 {
			return nil, fmt.Errorf("openflow: truncated instruction header")
		}
		typ := binary.BigEndian.Uint16(data[0:2])
		ilen := int(binary.BigEndian.Uint16(data[2:4]))
		if ilen < 8 || ilen > len(data) {
			return nil, fmt.Errorf("openflow: bad instruction length %d", ilen)
		}
		body := data[:ilen]
		switch typ {
		case InstrTypeGotoTable:
			out = append(out, &InstrGotoTable{TableID: body[4]})
		case InstrTypeApplyActions:
			acts, err := unmarshalActions(body[8:])
			if err != nil {
				return nil, err
			}
			out = append(out, &InstrApplyActions{Actions: acts})
		case InstrTypeWriteActions:
			acts, err := unmarshalActions(body[8:])
			if err != nil {
				return nil, err
			}
			out = append(out, &InstrWriteActions{Actions: acts})
		case InstrTypeClearActions:
			out = append(out, &InstrClearActions{})
		case InstrTypeMeter:
			out = append(out, &InstrMeter{MeterID: binary.BigEndian.Uint32(body[4:8])})
		default:
			return nil, fmt.Errorf("openflow: unsupported instruction type %d", typ)
		}
		data = data[ilen:]
	}
	return out, nil
}

// instructionsString renders an instruction list.
func instructionsString(instrs []Instruction) string {
	var b strings.Builder
	for i, in := range instrs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(in.String())
	}
	if b.Len() == 0 {
		return "drop"
	}
	return b.String()
}
