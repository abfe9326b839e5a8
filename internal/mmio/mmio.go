// Package mmio makes the paper's hardware/software boundary concrete: the
// label stack modifier is exposed as a memory-mapped peripheral with a
// register file, and a firmware-style driver programs it using nothing
// but 32-bit bus reads and writes — the way the "routing functionality in
// software" would actually talk to the FPGA block on an embedded board.
//
// Every bus access advances the peripheral's clock, so driver-level
// operations pay realistic polling overhead on top of the Table 6 cycle
// counts.
package mmio

import (
	"errors"
	"fmt"

	"embeddedmpls/internal/infobase"
	"embeddedmpls/internal/lsm"
)

// Register offsets of the label stack modifier peripheral (word aligned).
const (
	RegCtrl        uint32 = 0x00 // [2:0] opcode, [3] go, [4] reset
	RegStatus      uint32 = 0x04 // [0] done (sticky), [1] busy, [2] discard, [3] found
	RegDataIn      uint32 = 0x08 // packed stack entry for a user push
	RegPacketID    uint32 = 0x0c
	RegOldLabel    uint32 = 0x10
	RegNewLabel    uint32 = 0x14
	RegOperationIn uint32 = 0x18
	RegLevel       uint32 = 0x1c
	RegLabelLookup uint32 = 0x20
	RegTTLIn       uint32 = 0x24
	RegCoSIn       uint32 = 0x28
	RegLabelOut    uint32 = 0x2c // read only
	RegOperationOu uint32 = 0x30 // read only
	RegStackTop    uint32 = 0x34 // read only: packed top entry
	RegStackSize   uint32 = 0x38 // read only
	RegCycleCount  uint32 = 0x3c // read only: free-running cycle counter
	RegIndexOut    uint32 = 0x40 // read only: index half of a read-out pair
	RegWriteCount  uint32 = 0x44 // read only: pairs stored at the level in RegLevel
)

// Ctrl register bits.
const (
	CtrlOpMask uint32 = 0x7
	CtrlGo     uint32 = 1 << 3
	CtrlReset  uint32 = 1 << 4
)

// Status register bits.
const (
	StatusDone    uint32 = 1 << 0
	StatusBusy    uint32 = 1 << 1
	StatusDiscard uint32 = 1 << 2
	StatusFound   uint32 = 1 << 3
)

// Bus is a 32-bit word-addressed register space.
type Bus interface {
	Read(addr uint32) (uint32, error)
	Write(addr uint32, v uint32) error
}

// ErrBadAddress reports an access outside the register map.
var ErrBadAddress = errors.New("mmio: bad register address")

// Peripheral maps an lsm.HW behind the register file. Each bus access
// advances the device clock by AccessCycles (bus and core share the
// clock domain), so firmware polling costs real cycles.
type Peripheral struct {
	hw *lsm.HW
	// AccessCycles is the clock cost of one bus transaction (>= 1).
	AccessCycles int

	stickyDone  bool
	stickyFound bool
}

// NewPeripheral wraps hw. accessCycles < 1 is clamped to 1.
func NewPeripheral(hw *lsm.HW, accessCycles int) *Peripheral {
	if accessCycles < 1 {
		accessCycles = 1
	}
	p := &Peripheral{hw: hw, AccessCycles: accessCycles}
	hw.Sim.OnSample(func(uint64) {
		// The done pulse lasts one cycle; latch it so polling firmware
		// cannot miss it between accesses.
		if hw.Done.Bool() {
			p.stickyDone = true
		}
		if hw.SearchFound() {
			p.stickyFound = true
		}
	})
	return p
}

// tick advances the shared clock for one bus transaction.
func (p *Peripheral) tick() {
	for i := 0; i < p.AccessCycles; i++ {
		p.hw.Sim.Step()
	}
}

// Read implements Bus.
func (p *Peripheral) Read(addr uint32) (uint32, error) {
	p.tick()
	hw := p.hw
	switch addr {
	case RegCtrl:
		v := uint32(hw.ExtOp.Get()) & CtrlOpMask
		if hw.Enable.Bool() {
			v |= CtrlGo
		}
		if hw.Reset.Bool() {
			v |= CtrlReset
		}
		return v, nil
	case RegStatus:
		var v uint32
		if p.stickyDone {
			v |= StatusDone
		}
		if hw.MainState.Get() != 0 {
			v |= StatusBusy
		}
		if hw.PacketDiscard.Bool() {
			v |= StatusDiscard
		}
		if p.stickyFound {
			v |= StatusFound
		}
		return v, nil
	case RegDataIn:
		return uint32(hw.DataIn.Get()), nil
	case RegPacketID:
		return uint32(hw.PacketID.Get()), nil
	case RegOldLabel:
		return uint32(hw.OldLabel.Get()), nil
	case RegNewLabel:
		return uint32(hw.NewLabel.Get()), nil
	case RegOperationIn:
		return uint32(hw.OperationIn.Get()), nil
	case RegLevel:
		return uint32(hw.Level.Get()), nil
	case RegLabelLookup:
		return uint32(hw.LabelLookup.Get()), nil
	case RegTTLIn:
		return uint32(hw.TTLIn.Get()), nil
	case RegCoSIn:
		return uint32(hw.CoSIn.Get()), nil
	case RegLabelOut:
		return uint32(hw.LabelOut.Get()), nil
	case RegOperationOu:
		return uint32(hw.OperationOut.Get()), nil
	case RegStackTop:
		return uint32(hw.Stack.Top.Get()), nil
	case RegStackSize:
		return uint32(hw.Stack.Size.Get()), nil
	case RegCycleCount:
		return uint32(hw.Sim.Cycle()), nil
	case RegIndexOut:
		return uint32(hw.IndexOut.Get()), nil
	case RegWriteCount:
		lv := hw.Level.Get()
		if lv < 1 || lv > 3 {
			return 0, fmt.Errorf("%w: write count needs a valid level, have %d", ErrBadAddress, lv)
		}
		return uint32(hw.WriteCount(infobase.Level(lv))), nil
	default:
		return 0, fmt.Errorf("%w: %#x", ErrBadAddress, addr)
	}
}

// Write implements Bus. Writing CTRL clears the sticky status bits, like
// acknowledging an interrupt.
func (p *Peripheral) Write(addr uint32, v uint32) error {
	hw := p.hw
	switch addr {
	case RegCtrl:
		p.stickyDone = false
		p.stickyFound = false
		hw.ExtOp.Set(uint64(v & CtrlOpMask))
		hw.Enable.SetBool(v&CtrlGo != 0)
		hw.Reset.SetBool(v&CtrlReset != 0)
	case RegDataIn:
		hw.DataIn.Set(uint64(v))
	case RegPacketID:
		hw.PacketID.Set(uint64(v))
	case RegOldLabel:
		hw.OldLabel.Set(uint64(v))
	case RegNewLabel:
		hw.NewLabel.Set(uint64(v))
	case RegOperationIn:
		hw.OperationIn.Set(uint64(v))
	case RegLevel:
		hw.Level.Set(uint64(v))
	case RegLabelLookup:
		hw.LabelLookup.Set(uint64(v))
	case RegTTLIn:
		hw.TTLIn.Set(uint64(v))
	case RegCoSIn:
		hw.CoSIn.Set(uint64(v))
	case RegLabelOut, RegOperationOu, RegStackTop, RegStackSize, RegStatus, RegCycleCount, RegIndexOut, RegWriteCount:
		return fmt.Errorf("%w: %#x is read only", ErrBadAddress, addr)
	default:
		return fmt.Errorf("%w: %#x", ErrBadAddress, addr)
	}
	p.tick()
	return nil
}
