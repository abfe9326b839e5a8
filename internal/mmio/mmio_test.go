package mmio

import (
	"errors"
	"slices"
	"testing"

	"embeddedmpls/internal/infobase"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/lsm"
)

func newDevice(t *testing.T, rtype lsm.RouterType) (*Peripheral, *Driver) {
	t.Helper()
	hw := lsm.NewWith(lsm.Options{})
	hw.RtrType.Set(uint64(rtype))
	p := NewPeripheral(hw, 1)
	return p, NewDriver(p)
}

func TestDriverResetAndPush(t *testing.T) {
	_, d := newDevice(t, lsm.LSR)
	if err := d.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := d.Push(label.Entry{Label: 42, CoS: 2, TTL: 64}); err != nil {
		t.Fatal(err)
	}
	e, err := d.Pop()
	if err != nil {
		t.Fatal(err)
	}
	if e.Label != 42 || e.CoS != 2 || e.TTL != 64 || !e.Bottom {
		t.Errorf("popped %v", e)
	}
	if _, err := d.Pop(); err != label.ErrStackEmpty {
		t.Errorf("pop empty: %v", err)
	}
}

func TestDriverTablesAndLookup(t *testing.T) {
	_, d := newDevice(t, lsm.LSR)
	if err := d.WritePair(infobase.Level2, infobase.Pair{Index: 7, NewLabel: 700, Op: label.OpSwap}); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePair(infobase.Level1, infobase.Pair{Index: 0xc0a80101, NewLabel: 100, Op: label.OpPush}); err != nil {
		t.Fatal(err)
	}
	lbl, op, found, err := d.Lookup(infobase.Level2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !found || lbl != 700 || op != label.OpSwap {
		t.Errorf("lookup = (%v, %v, %v)", lbl, op, found)
	}
	lbl, op, found, err = d.Lookup(infobase.Level1, 0xc0a80101)
	if err != nil {
		t.Fatal(err)
	}
	if !found || lbl != 100 || op != label.OpPush {
		t.Errorf("level-1 lookup = (%v, %v, %v)", lbl, op, found)
	}
	if _, _, found, err = d.Lookup(infobase.Level2, 99); err != nil || found {
		t.Errorf("miss = found %v, err %v", found, err)
	}
	if err := d.WritePair(infobase.Level2, infobase.Pair{Index: 1 << 21, NewLabel: 1, Op: label.OpSwap}); err == nil {
		t.Error("invalid pair accepted by the driver")
	}
}

func TestDriverUpdateSwapEndToEnd(t *testing.T) {
	_, d := newDevice(t, lsm.LSR)
	if err := d.WritePair(infobase.Level2, infobase.Pair{Index: 42, NewLabel: 777, Op: label.OpSwap}); err != nil {
		t.Fatal(err)
	}
	if err := d.Push(label.Entry{Label: 42, CoS: 3, TTL: 64}); err != nil {
		t.Fatal(err)
	}
	discarded, err := d.Update(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if discarded {
		t.Fatal("swap discarded")
	}
	st, err := d.Stack()
	if err != nil {
		t.Fatal(err)
	}
	top, _ := st.Top()
	if st.Depth() != 1 || top.Label != 777 || top.TTL != 63 || top.CoS != 3 {
		t.Errorf("stack after swap = %v", st)
	}
}

func TestDriverUpdateDiscard(t *testing.T) {
	_, d := newDevice(t, lsm.LSR)
	if err := d.Push(label.Entry{Label: 9, TTL: 64}); err != nil {
		t.Fatal(err)
	}
	discarded, err := d.Update(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !discarded {
		t.Fatal("miss not reported as discard")
	}
	st, err := d.Stack()
	if err != nil {
		t.Fatal(err)
	}
	if st.Depth() != 0 {
		t.Errorf("stack not reset: %v", st)
	}
}

func TestDriverMatchesBenchResults(t *testing.T) {
	// The driver over MMIO and the direct bench must agree on the same
	// configuration.
	_, d := newDevice(t, lsm.LSR)
	b := lsm.NewBench(lsm.LSR)
	pairs := []infobase.Pair{
		{Index: 5, NewLabel: 50, Op: label.OpSwap},
		{Index: 6, NewLabel: 0, Op: label.OpPop},
		{Index: 7, NewLabel: 70, Op: label.OpPush},
	}
	for _, p := range pairs {
		if err := d.WritePair(infobase.Level2, p); err != nil {
			t.Fatal(err)
		}
		if _, err := b.WritePair(infobase.Level2, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range []infobase.Key{5, 6, 7, 8} {
		dl, do, df, err := d.Lookup(infobase.Level2, key)
		if err != nil {
			t.Fatal(err)
		}
		br, _, err := b.Lookup(infobase.Level2, key)
		if err != nil {
			t.Fatal(err)
		}
		if df != br.Found || (df && (dl != br.Label || do != br.Op)) {
			t.Errorf("key %d: driver=(%v,%v,%v) bench=%+v", key, dl, do, df, br)
		}
	}
}

func TestBusAccessCostsCycles(t *testing.T) {
	p, d := newDevice(t, lsm.LSR)
	before, err := p.Read(RegCycleCount)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Push(label.Entry{Label: 1, TTL: 1}); err != nil {
		t.Fatal(err)
	}
	after, err := p.Read(RegCycleCount)
	if err != nil {
		t.Fatal(err)
	}
	// A push is 3 core cycles; over the bus the driver pays one cycle
	// per transaction: data write, ctrl write, two status polls (the
	// done pulse lands during the second), ctrl clear — plus the cycle
	// of the counter read itself. The 3 push cycles elapse *during*
	// those transactions (shared clock), so the bus path costs 6 versus
	// the core's 3.
	if got := after - before; got != 6 {
		t.Errorf("push cost %d cycles over the bus, want 6", got)
	}
}

func TestRegisterMapErrors(t *testing.T) {
	p, _ := newDevice(t, lsm.LSR)
	if _, err := p.Read(0xfc); !errors.Is(err, ErrBadAddress) {
		t.Errorf("read of unmapped register: %v", err)
	}
	if err := p.Write(0xfc, 1); !errors.Is(err, ErrBadAddress) {
		t.Errorf("write of unmapped register: %v", err)
	}
	for _, ro := range []uint32{RegStatus, RegLabelOut, RegOperationOu, RegStackTop, RegStackSize, RegCycleCount} {
		if err := p.Write(ro, 1); !errors.Is(err, ErrBadAddress) {
			t.Errorf("write to read-only %#x: %v", ro, err)
		}
	}
}

func TestRegisterReadback(t *testing.T) {
	p, _ := newDevice(t, lsm.LSR)
	writes := map[uint32]uint32{
		RegDataIn:      0xdeadbeef,
		RegPacketID:    0x01020304,
		RegOldLabel:    0x12345,
		RegNewLabel:    0x54321,
		RegOperationIn: 2,
		RegLevel:       3,
		RegLabelLookup: 0x42,
		RegTTLIn:       200,
		RegCoSIn:       5,
	}
	for addr, v := range writes {
		if err := p.Write(addr, v); err != nil {
			t.Fatal(err)
		}
	}
	for addr, want := range writes {
		got, err := p.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("reg %#x = %#x, want %#x", addr, got, want)
		}
	}
	// CTRL readback reflects op/go/reset bits.
	if err := p.Write(RegCtrl, CtrlGo|uint32(lsm.CmdUserPush)); err != nil {
		t.Fatal(err)
	}
	v, err := p.Read(RegCtrl)
	if err != nil {
		t.Fatal(err)
	}
	if v&CtrlGo == 0 || v&CtrlOpMask != uint32(lsm.CmdUserPush) {
		t.Errorf("ctrl readback = %#x", v)
	}
	if err := p.Write(RegCtrl, 0); err != nil {
		t.Fatal(err)
	}
}

// brokenBus fails after n successful accesses, exercising driver error
// propagation.
type brokenBus struct {
	inner Bus
	left  int
}

func (b *brokenBus) Read(addr uint32) (uint32, error) {
	if b.left <= 0 {
		return 0, errors.New("bus fault")
	}
	b.left--
	return b.inner.Read(addr)
}

func (b *brokenBus) Write(addr uint32, v uint32) error {
	if b.left <= 0 {
		return errors.New("bus fault")
	}
	b.left--
	return b.inner.Write(addr, v)
}

// recordingBus logs every write that reaches the peripheral.
type recordingBus struct {
	inner  Bus
	writes []regWrite
}

func (b *recordingBus) Read(addr uint32) (uint32, error) { return b.inner.Read(addr) }

func (b *recordingBus) Write(addr uint32, v uint32) error {
	b.writes = append(b.writes, regWrite{addr, v})
	return b.inner.Write(addr, v)
}

// TestDriverWriteOrder pins the exact register-write sequence of the
// operations that load several operand registers, so a bus trace is the
// same on every run.
func TestDriverWriteOrder(t *testing.T) {
	ctrl := func(cmd lsm.Command) []regWrite {
		return []regWrite{{RegCtrl, CtrlGo | uint32(cmd)}, {RegCtrl, 0}}
	}
	for _, tc := range []struct {
		name string
		op   func(d *Driver) error
		want []regWrite
	}{
		{"WritePair level 1", func(d *Driver) error {
			return d.WritePair(infobase.Level1, infobase.Pair{Index: 0xc0a80101, NewLabel: 100, Op: label.OpPush})
		}, append([]regWrite{
			{RegLevel, 1}, {RegPacketID, 0xc0a80101}, {RegNewLabel, 100}, {RegOperationIn, uint32(label.OpPush)},
		}, ctrl(lsm.CmdWritePair)...)},
		{"WritePair level 2", func(d *Driver) error {
			return d.WritePair(infobase.Level2, infobase.Pair{Index: 42, NewLabel: 777, Op: label.OpSwap})
		}, append([]regWrite{
			{RegLevel, 2}, {RegOldLabel, 42}, {RegNewLabel, 777}, {RegOperationIn, uint32(label.OpSwap)},
		}, ctrl(lsm.CmdWritePair)...)},
		{"Update", func(d *Driver) error {
			_, err := d.Update(0xc0a80101, 64, 5)
			return err
		}, append([]regWrite{
			{RegPacketID, 0xc0a80101}, {RegTTLIn, 64}, {RegCoSIn, 5},
		}, ctrl(lsm.CmdUpdate)...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hw := lsm.NewWith(lsm.Options{})
			hw.RtrType.Set(uint64(lsm.LER))
			bus := &recordingBus{inner: NewPeripheral(hw, 1)}
			if err := tc.op(NewDriver(bus)); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(bus.writes, tc.want) {
				t.Errorf("writes = %x, want %x", bus.writes, tc.want)
			}
		})
	}
}

func TestDriverPropagatesBusFaults(t *testing.T) {
	for _, budget := range []int{0, 1, 2, 3} {
		hw := lsm.NewWith(lsm.Options{})
		d := NewDriver(&brokenBus{inner: NewPeripheral(hw, 1), left: budget})
		if err := d.Push(label.Entry{Label: 1, TTL: 1}); err == nil {
			t.Errorf("budget %d: push succeeded on a faulting bus", budget)
		}
	}
}

func TestDriverTimeout(t *testing.T) {
	hw := lsm.NewWith(lsm.Options{})
	// Hold reset so no command ever completes.
	hw.Reset.SetBool(true)
	hw.Sim.Step()
	hw.Reset.SetBool(false)
	p := NewPeripheral(hw, 1)
	d := NewDriver(p)
	d.PollLimit = 4
	// An update with nothing on the stack and no routes at an LSR does
	// complete; instead wedge by never asserting go: drive a command op
	// with the go bit forced off through a shim.
	if _, err := d.exec(uint32(lsm.CmdUpdate)); !errors.Is(err, ErrTimeout) {
		t.Errorf("exec without go: %v", err)
	}
}

func TestDriverReadPair(t *testing.T) {
	_, d := newDevice(t, lsm.LSR)
	pairs := []infobase.Pair{
		{Index: 11, NewLabel: 110, Op: label.OpSwap},
		{Index: 12, NewLabel: 120, Op: label.OpPop},
	}
	for _, p := range pairs {
		if err := d.WritePair(infobase.Level2, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range pairs {
		got, err := d.ReadPair(infobase.Level2, i)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("addr %d: %+v, want %+v", i, got, want)
		}
	}
}

// TestDumpAndCloneConfiguration audits one device's tables over the bus
// and programs a second device from the dump; both must forward
// identically afterwards.
func TestDumpAndCloneConfiguration(t *testing.T) {
	_, src := newDevice(t, lsm.LSR)
	pairs := []infobase.Pair{
		{Index: 21, NewLabel: 210, Op: label.OpSwap},
		{Index: 22, NewLabel: 0, Op: label.OpPop},
		{Index: 23, NewLabel: 230, Op: label.OpPush},
	}
	for _, p := range pairs {
		if err := src.WritePair(infobase.Level2, p); err != nil {
			t.Fatal(err)
		}
	}
	dump, err := src.DumpLevel(infobase.Level2)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump) != len(pairs) {
		t.Fatalf("dumped %d pairs, wrote %d", len(dump), len(pairs))
	}
	for i := range pairs {
		if dump[i] != pairs[i] {
			t.Errorf("pair %d: dumped %+v, wrote %+v", i, dump[i], pairs[i])
		}
	}

	_, dst := newDevice(t, lsm.LSR)
	for _, p := range dump {
		if err := dst.WritePair(infobase.Level2, p); err != nil {
			t.Fatal(err)
		}
	}
	// Equal behaviour: the same carried label swaps identically.
	for _, drv := range []*Driver{src, dst} {
		if err := drv.Push(label.Entry{Label: 21, TTL: 64}); err != nil {
			t.Fatal(err)
		}
		discarded, err := drv.Update(0, 0, 0)
		if err != nil || discarded {
			t.Fatalf("update: discarded=%v err=%v", discarded, err)
		}
		st, err := drv.Stack()
		if err != nil {
			t.Fatal(err)
		}
		top, _ := st.Top()
		if top.Label != 210 {
			t.Errorf("cloned device swapped to %d, want 210", top.Label)
		}
	}
	// An empty level dumps empty; an unset level register errors.
	empty, err := src.DumpLevel(infobase.Level3)
	if err != nil || len(empty) != 0 {
		t.Errorf("empty dump = %v, %v", empty, err)
	}
}

func TestWriteCountNeedsValidLevel(t *testing.T) {
	p, _ := newDevice(t, lsm.LSR)
	if _, err := p.Read(RegWriteCount); err == nil {
		t.Error("write count read with level register at 0 succeeded")
	}
}
