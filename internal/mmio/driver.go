package mmio

import (
	"errors"
	"fmt"

	"embeddedmpls/internal/infobase"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/lsm"
)

// Driver is the firmware side of the hardware/software split: it
// implements the modifier's operations using only Bus reads and writes —
// load the operand registers, set the go bit, poll the sticky done flag,
// read the results, acknowledge.
type Driver struct {
	bus Bus
	// PollLimit bounds status polls per operation; exceeded means the
	// hardware wedged.
	PollLimit int
}

// Driver errors.
var (
	ErrTimeout = errors.New("mmio: device did not complete")
)

// NewDriver wraps a bus.
func NewDriver(bus Bus) *Driver {
	return &Driver{bus: bus, PollLimit: 8192}
}

// exec arms a command and polls to completion, returning the final
// status word.
func (d *Driver) exec(ctrl uint32) (uint32, error) {
	if err := d.bus.Write(RegCtrl, ctrl); err != nil {
		return 0, err
	}
	for i := 0; i < d.PollLimit; i++ {
		st, err := d.bus.Read(RegStatus)
		if err != nil {
			return 0, err
		}
		if st&StatusDone != 0 {
			// Drop the go bit; the sticky bits stay readable until the
			// next command clears them.
			if err := d.bus.Write(RegCtrl, 0); err != nil {
				return 0, err
			}
			return st, nil
		}
	}
	_ = d.bus.Write(RegCtrl, 0)
	return 0, fmt.Errorf("%w after %d polls", ErrTimeout, d.PollLimit)
}

// Reset pulses the architecture reset.
func (d *Driver) Reset() error {
	_, err := d.exec(CtrlReset)
	return err
}

// Push loads one entry onto the stack.
func (d *Driver) Push(e label.Entry) error {
	w, err := e.Pack()
	if err != nil {
		return err
	}
	if err := d.bus.Write(RegDataIn, w); err != nil {
		return err
	}
	_, err = d.exec(CtrlGo | uint32(lsm.CmdUserPush))
	return err
}

// Pop removes the top entry, returning it.
func (d *Driver) Pop() (label.Entry, error) {
	size, err := d.bus.Read(RegStackSize)
	if err != nil {
		return label.Entry{}, err
	}
	if size == 0 {
		return label.Entry{}, label.ErrStackEmpty
	}
	top, err := d.bus.Read(RegStackTop)
	if err != nil {
		return label.Entry{}, err
	}
	if _, err := d.exec(CtrlGo | uint32(lsm.CmdUserPop)); err != nil {
		return label.Entry{}, err
	}
	return label.Unpack(top), nil
}

// WritePair stores an information base entry.
func (d *Driver) WritePair(lv infobase.Level, p infobase.Pair) error {
	if err := infobase.ValidatePair(lv, p); err != nil {
		return err
	}
	index := RegOldLabel
	if lv == infobase.Level1 {
		index = RegPacketID
	}
	if err := d.writeRegs(
		regWrite{RegLevel, uint32(lv)},
		regWrite{index, uint32(p.Index)},
		regWrite{RegNewLabel, uint32(p.NewLabel)},
		regWrite{RegOperationIn, uint32(p.Op)},
	); err != nil {
		return err
	}
	_, err := d.exec(CtrlGo | uint32(lsm.CmdWritePair))
	return err
}

// regWrite is one operand register write.
type regWrite struct{ addr, v uint32 }

// writeRegs writes operand registers in the order given, so the bus
// sees the same transaction sequence on every run.
func (d *Driver) writeRegs(ws ...regWrite) error {
	for _, w := range ws {
		if err := d.bus.Write(w.addr, w.v); err != nil {
			return err
		}
	}
	return nil
}

// Lookup searches a level directly.
func (d *Driver) Lookup(lv infobase.Level, key infobase.Key) (label.Label, label.Op, bool, error) {
	if err := d.bus.Write(RegLevel, uint32(lv)); err != nil {
		return 0, 0, false, err
	}
	reg := RegLabelLookup
	if lv == infobase.Level1 {
		reg = RegPacketID
	}
	if err := d.bus.Write(reg, uint32(key)); err != nil {
		return 0, 0, false, err
	}
	st, err := d.exec(CtrlGo | uint32(lsm.CmdLookup))
	if err != nil {
		return 0, 0, false, err
	}
	if st&StatusFound == 0 {
		return 0, label.OpNone, false, nil
	}
	lbl, err := d.bus.Read(RegLabelOut)
	if err != nil {
		return 0, 0, false, err
	}
	op, err := d.bus.Read(RegOperationOu)
	if err != nil {
		return 0, 0, false, err
	}
	return label.Label(lbl), label.Op(op), true, nil
}

// ReadPair reads the information base entry at address i of level lv
// through the management read-out command.
func (d *Driver) ReadPair(lv infobase.Level, i int) (infobase.Pair, error) {
	if err := d.bus.Write(RegLevel, uint32(lv)); err != nil {
		return infobase.Pair{}, err
	}
	if err := d.bus.Write(RegDataIn, uint32(i)); err != nil {
		return infobase.Pair{}, err
	}
	if _, err := d.exec(CtrlGo | uint32(lsm.CmdReadPair)); err != nil {
		return infobase.Pair{}, err
	}
	idx, err := d.bus.Read(RegIndexOut)
	if err != nil {
		return infobase.Pair{}, err
	}
	lbl, err := d.bus.Read(RegLabelOut)
	if err != nil {
		return infobase.Pair{}, err
	}
	op, err := d.bus.Read(RegOperationOu)
	if err != nil {
		return infobase.Pair{}, err
	}
	return infobase.Pair{Index: infobase.Key(idx), NewLabel: label.Label(lbl), Op: label.Op(op)}, nil
}

// DumpLevel reads back every pair stored at a level through the
// management read-out path — how operational software audits the
// hardware's view of its configuration.
func (d *Driver) DumpLevel(lv infobase.Level) ([]infobase.Pair, error) {
	if err := d.bus.Write(RegLevel, uint32(lv)); err != nil {
		return nil, err
	}
	n, err := d.bus.Read(RegWriteCount)
	if err != nil {
		return nil, err
	}
	out := make([]infobase.Pair, 0, n)
	for i := 0; i < int(n); i++ {
		p, err := d.ReadPair(lv, i)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// Update runs the packet-driven stack update; it reports whether the
// packet was discarded.
func (d *Driver) Update(packetID uint32, ttlIn uint8, cosIn label.CoS) (bool, error) {
	if err := d.writeRegs(
		regWrite{RegPacketID, packetID},
		regWrite{RegTTLIn, uint32(ttlIn)},
		regWrite{RegCoSIn, uint32(cosIn)},
	); err != nil {
		return false, err
	}
	st, err := d.exec(CtrlGo | uint32(lsm.CmdUpdate))
	if err != nil {
		return false, err
	}
	return st&StatusDiscard != 0, nil
}

// Stack reads the whole stack back, destructively (pop by pop), the way
// an egress interface in software would.
func (d *Driver) Stack() (label.Stack, error) {
	var popped, out label.Stack // popped holds the hardware's top at its bottom
	for {
		size, err := d.bus.Read(RegStackSize)
		if err != nil {
			return label.Stack{}, err
		}
		if size == 0 {
			break
		}
		e, err := d.Pop()
		if err == nil {
			err = popped.Push(e)
		}
		if err != nil {
			return label.Stack{}, err
		}
	}
	for !popped.Empty() {
		e, _ := popped.Pop()
		_ = out.Push(e) // the S bits are renormalised here
	}
	return out, nil
}
