package lsm

import (
	"embeddedmpls/internal/infobase"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/rtl"
)

// State encodings for the four control unit state machines (paper
// Figures 8-11). The idle state of each machine is 0 so that reset (which
// clears the state registers) lands every machine in idle.
const (
	// main interface controller (Figure 8)
	mIdle = iota
	mLblActive
	mIBActive
)

const (
	// label stack interface (Figure 9)
	lsiIdle = iota
	lsiUserPush
	lsiUserPop
	lsiSearchEnable
	lsiReadResult
	lsiRemoveTop
	lsiUpdateTTL
	lsiVerifyInfo
	lsiUpdateTop
	lsiLoadNew
	lsiPushOld
	lsiPushNew
	lsiDiscard
	lsiDone
)

const (
	// information base interface (Figure 10), plus the direct read-out
	// states ("a search index when the user wants to read the contents
	// of the information base directly")
	ibiIdle = iota
	ibiWritePair
	ibiSearchEnable
	ibiDone
	ibiRead
	ibiReadLatch
)

const (
	// search module (Figure 11), plus the associative-match state of the
	// CAM ablation
	srIdle = iota
	srRead
	srWait
	srCompare
	srFound
	srNotFound
	srCAMMatch
)

// SearchKind selects the information base search implementation.
type SearchKind int

const (
	// SearchLinear is the paper's design: iterate the level's memory,
	// 3 cycles per entry (3n+5 total).
	SearchLinear SearchKind = iota
	// SearchCAM is the associative ablation (experiment X3): a
	// content-addressable index memory resolves the key in one match
	// cycle, making every lookup constant-time.
	SearchCAM
)

// String names the search kind.
func (k SearchKind) String() string {
	if k == SearchCAM {
		return "cam"
	}
	return "linear"
}

// Options configures an HW instance.
type Options struct {
	Search SearchKind
}

// indexBits is the width of the information base address counters. The
// paper pairs 1024-entry memories with a "10 bit comparator" for the
// read/write indices; we carry one extra bit so that a completely full
// level (write count 1024) is still distinguishable from an empty one.
const indexBits = 11

// HW is the cycle-accurate register-transfer-level model of the label
// stack modifier: control unit (four state machines) plus data path
// (label stack register file, TTL counter, old/new entry registers,
// three-level information base memories, and the 32/20/10-bit
// comparators). Drive it through a Bench, or directly via the exported
// signals for waveform work.
type HW struct {
	Sim  *rtl.Simulator
	Opts Options

	// External inputs.
	Reset       *rtl.Signal // "reset": 3-cycle architecture reset
	Enable      *rtl.Signal // "enable": command strobe
	ExtOp       *rtl.Signal // "extoperation": Command code
	DataIn      *rtl.Signal // "data_in": packed entry for a user push
	PacketID    *rtl.Signal // "packetid": 32-bit packet identifier
	OldLabel    *rtl.Signal // "old_label": index half of a written pair
	NewLabel    *rtl.Signal // "new_label": label half of a written pair
	OperationIn *rtl.Signal // "operation_in": op of a written pair
	Level       *rtl.Signal // "level": information base level (1..3)
	LabelLookup *rtl.Signal // "label_lookup": key for level-2/3 lookups
	TTLIn       *rtl.Signal // "ttl_in": control-path TTL source
	CoSIn       *rtl.Signal // "cos_in": control-path CoS source
	RtrType     *rtl.Signal // "rtrtype": 0 = LER, 1 = LSR

	// External outputs.
	Done          *rtl.Signal // one-cycle pulse at command completion
	LabelOut      *rtl.Signal // "label_out": label found by the search
	OperationOut  *rtl.Signal // "operation_out": operation found
	LookupDone    *rtl.Signal // "lookup_done": search-complete pulse
	PacketDiscard *rtl.Signal // "packetdiscard": packet was dropped
	RIndex        *rtl.Signal // "r_index": search read address
	WIndex        *rtl.Signal // "w_index": selected level's write count
	IndexOut      *rtl.Signal // "index_out": index half of a read-out pair

	// Data path visibility.
	Stack     *StackFile
	TTLQ      *rtl.Signal // TTL counter value
	MainState *rtl.Signal
	LSIState  *rtl.Signal
	IBIState  *rtl.Signal
	SrchState *rtl.Signal

	idxRAM [infobase.NumLevels]*rtl.RAM
	lblRAM [infobase.NumLevels]*rtl.RAM
	opRAM  [infobase.NumLevels]*rtl.RAM

	// Internal nets the bench and the bus peripheral watch, resolved
	// once here rather than by name per call.
	wcnt    [infobase.NumLevels]*rtl.Signal // per-level write counters
	wSel    *rtl.Signal                     // selected level's write count
	camAddr *rtl.Signal                     // CAM ablation: matched address
	rstCnt  *rtl.Signal                     // reset sequencer count
}

// New builds the paper's label stack modifier (linear search) inside a
// fresh simulator.
func New() *HW { return NewWith(Options{}) }

// NewWith builds a label stack modifier with the given options.
//
// Every process is registered with the signals it reads and drives (the
// rtl package's sensitivity contract; the lists follow each process). The
// combinational processes are cut where the hardware is — a mux, an
// adder, a decoder — so that in the three-state search loop, where the
// design spends 99 % of its cycles, only the few processes downstream of
// the search state and the read address run.
func NewWith(opts Options) *HW {
	sim := rtl.New()
	hw := &HW{Sim: sim, Opts: opts}

	// --- external interface -------------------------------------------
	hw.Reset = sim.Signal("reset", 1)
	hw.Enable = sim.Signal("enable", 1)
	hw.ExtOp = sim.Signal("extoperation", 3)
	hw.DataIn = sim.Signal("data_in", 32)
	hw.PacketID = sim.Signal("packetid", 32)
	hw.OldLabel = sim.Signal("old_label", 20)
	hw.NewLabel = sim.Signal("new_label", 20)
	hw.OperationIn = sim.Signal("operation_in", 2)
	hw.Level = sim.Signal("level", 2)
	hw.LabelLookup = sim.Signal("label_lookup", 20)
	hw.TTLIn = sim.Signal("ttl_in", 8)
	hw.CoSIn = sim.Signal("cos_in", 3)
	hw.RtrType = sim.Signal("rtrtype", 1)

	hw.Done = sim.Signal("done", 1)
	hw.LabelOut = sim.Signal("label_out", 20)
	hw.OperationOut = sim.Signal("operation_out", 2)
	hw.LookupDone = sim.Signal("lookup_done", 1)
	hw.PacketDiscard = sim.Signal("packetdiscard", 1)
	hw.RIndex = sim.Signal("r_index", indexBits)
	hw.WIndex = sim.Signal("w_index", indexBits)
	hw.IndexOut = sim.Signal("index_out", 32)

	// Trace aliases for the figures: "save" and "lookup" reflect the
	// command being strobed.
	save := sim.Signal("save", 1)
	lookup := sim.Signal("lookup", 1)
	sim.Comb(func() {
		save.SetBool(hw.Enable.Bool() && Command(hw.ExtOp.Get()) == CmdWritePair)
		lookup.SetBool(hw.Enable.Bool() && Command(hw.ExtOp.Get()) == CmdLookup)
	}, rtl.Sigs{hw.Enable, hw.ExtOp}, rtl.Sigs{save, lookup})

	// --- control unit state registers ---------------------------------
	hw.MainState = sim.Signal("main_state", 2)
	hw.LSIState = sim.Signal("lsi_state", 4)
	hw.IBIState = sim.Signal("ibi_state", 3)
	hw.SrchState = sim.Signal("search_state", 3)

	// Moore outputs of the sub-machines.
	lsiDoneSig := sim.Signal("lsi_done", 1)
	ibiDoneSig := sim.Signal("ibi_done", 1)
	srchEnbl := sim.Signal("srch_enbl", 1)
	srchDone := sim.Signal("srch_done", 1)
	itemFound := sim.Signal("item_found", 1)

	// --- information base memories ------------------------------------
	// Per level: an index component (32 bits at level 1 for the packet
	// identifier, 20 bits at levels 2-3), a label component (20 bits)
	// and an operation component (2 bits), each 1024 words, plus a write
	// counter. One shared read counter addresses all levels; the level
	// mux picks whose outputs feed the comparators.
	wen := make(rtl.Sigs, infobase.NumLevels)
	wcnt := rtl.Sigs(hw.wcnt[:])
	idxRD := make(rtl.Sigs, infobase.NumLevels)
	lblRD := make(rtl.Sigs, infobase.NumLevels)
	opRD := make(rtl.Sigs, infobase.NumLevels)
	idxWD := make(rtl.Sigs, infobase.NumLevels)
	// ibRAddr feeds every level's read port: the search counter in the
	// paper's linear design, or the CAM's matched address.
	ibRAddr := sim.Signal("ib_raddr", indexBits)
	for lv := 0; lv < infobase.NumLevels; lv++ {
		n := byte('1' + lv)
		idxW := uint(20)
		if lv == 0 {
			idxW = 32
		}
		wen[lv] = sim.Signal("ib_wen_"+string(n), 1)
		wcnt[lv] = sim.Signal("ib_wcnt_"+string(n), indexBits)
		idxRD[lv] = sim.Signal("ib_idx_rd_"+string(n), idxW)
		lblRD[lv] = sim.Signal("ib_lbl_rd_"+string(n), 20)
		opRD[lv] = sim.Signal("ib_op_rd_"+string(n), 2)
		idxWD[lv] = sim.Signal("ib_idx_wd_"+string(n), idxW)

		rtl.NewCounter(sim, wcnt[lv], wen[lv], nil, nil, nil, hw.Reset)
		hw.idxRAM[lv] = rtl.NewRAM(sim, infobase.EntriesPerLevel, ibRAddr, idxRD[lv], wcnt[lv], idxWD[lv], wen[lv])
		hw.lblRAM[lv] = rtl.NewRAM(sim, infobase.EntriesPerLevel, ibRAddr, lblRD[lv], wcnt[lv], hw.NewLabel, wen[lv])
		hw.opRAM[lv] = rtl.NewRAM(sim, infobase.EntriesPerLevel, ibRAddr, opRD[lv], wcnt[lv], hw.OperationIn, wen[lv])
	}
	sim.Comb(func() {
		// Level 1 pairs are keyed by the packet identifier; levels 2-3
		// by the old label.
		idxWD[0].Set(hw.PacketID.Get())
		idxWD[1].Set(hw.OldLabel.Get())
		idxWD[2].Set(hw.OldLabel.Get())
		writing := hw.IBIState.Get() == ibiWritePair
		for lv := 0; lv < infobase.NumLevels; lv++ {
			wen[lv].SetBool(writing && hw.Level.Get() == uint64(lv+1))
		}
	}, rtl.Sigs{hw.PacketID, hw.OldLabel, hw.IBIState, hw.Level}, join(idxWD, wen))

	// --- data path: label stack, TTL counter, entry registers ---------
	stkClr := sim.Signal("stk_clr", 1)
	stkPush := sim.Signal("stk_push", 1)
	stkPop := sim.Signal("stk_pop", 1)
	stkSetTTL := sim.Signal("stk_setttl", 1)
	stkDin := sim.Signal("stk_din", 32)
	hw.TTLQ = sim.Signal("ttl_q", 8)
	hw.Stack = NewStackFile(sim, "stack_", stkClr, stkPush, stkPop, stkSetTTL, stkDin, hw.TTLQ)

	ttlEn := sim.Signal("ttl_en", 1)
	ttlLd := sim.Signal("ttl_ld", 1)
	ttlD := sim.Signal("ttl_d", 8)
	ttlDown := sim.Signal("ttl_down", 1)
	rtl.NewCounter(sim, hw.TTLQ, ttlEn, ttlDown, ttlLd, ttlD, hw.Reset)

	oldQ := sim.Signal("old_q", 32)
	oldEn := sim.Signal("old_en", 1)
	rtl.NewRegister(sim, hw.Stack.Top, oldQ, oldEn, hw.Reset)

	hadTop := sim.Signal("had_top", 1)
	hadTopD := sim.Signal("had_top_d", 1)
	rtl.NewRegister(sim, hadTopD, hadTop, oldEn, hw.Reset)

	newQ := sim.Signal("new_q", 32)
	newEn := sim.Signal("new_en", 1)
	newD := sim.Signal("new_d", 32)
	rtl.NewRegister(sim, newD, newQ, newEn, hw.Reset)

	// --- search selection and comparators ------------------------------
	selLevel := sim.Signal("sel_level", 2)
	key20 := sim.Signal("key20", 20)
	idxRDSel20 := sim.Signal("idx_rd_sel20", 20)
	lblRDSel := sim.Signal("lbl_rd_sel", 20)
	opRDSel := sim.Signal("op_rd_sel", 2)
	hw.wSel = sim.Signal("w_sel", indexBits)
	wSel := hw.wSel
	rPlus1 := sim.Signal("r_index_plus1", indexBits)
	aeb32 := sim.Signal("aeb_32b", 1)
	aeb20 := sim.Signal("aeb_20b", 1)
	aeb10 := sim.Signal("aeb_10b", 1)
	match := sim.Signal("match", 1)
	exhausted := sim.Signal("exhausted", 1)

	// Level and key select.
	sim.Comb(func() {
		if hw.MainState.Get() == mLblActive {
			// The level and key come from the stack state: an empty
			// stack searches level 1 by packet identifier; otherwise
			// the top label keys level depth+1 (capped at 3).
			size := int(hw.Stack.Size.Get())
			selLevel.Set(uint64(infobase.LevelForDepth(size)))
			key20.Set(uint64(label.Unpack(uint32(hw.Stack.Top.Get())).Label))
		} else {
			selLevel.Set(hw.Level.Get())
			key20.Set(hw.LabelLookup.Get())
		}
	}, rtl.Sigs{hw.MainState, hw.Stack.Size, hw.Stack.Top, hw.Level, hw.LabelLookup}, rtl.Sigs{selLevel, key20})
	// selected is the memory bank the level mux passes: an out-of-range
	// level selects bank 0.
	selected := func() int {
		lvi := int(selLevel.Get()) - 1
		if lvi < 0 || lvi >= infobase.NumLevels {
			lvi = 0
		}
		return lvi
	}
	// Level mux over the memory outputs and write counters.
	sim.Comb(func() {
		lvi := selected()
		if lvi >= 1 {
			idxRDSel20.Set(idxRD[lvi].Get())
		} else {
			idxRDSel20.Set(0)
		}
		lblRDSel.Set(lblRD[lvi].Get())
		opRDSel.Set(opRD[lvi].Get())
		w := wcnt[lvi].Get()
		wSel.Set(w)
		hw.WIndex.Set(w)
	}, join(rtl.Sigs{selLevel}, idxRD[1:], lblRD, opRD, wcnt),
		rtl.Sigs{idxRDSel20, lblRDSel, opRDSel, wSel, hw.WIndex})
	sim.Comb(func() { rPlus1.Set(hw.RIndex.Get() + 1) }, rtl.Sigs{hw.RIndex}, rtl.Sigs{rPlus1})
	rtl.Comparator(sim, hw.PacketID, idxRD[0], aeb32)
	rtl.Comparator(sim, key20, idxRDSel20, aeb20)
	rtl.Comparator(sim, rPlus1, wSel, aeb10)

	// CAM ablation: one associative bank shadows each level's index
	// memory; the selected level's hit/address drive the read port
	// instead of the search counter.
	camMode := hw.Opts.Search == SearchCAM
	camHit := sim.Signal("cam_hit", 1)
	hw.camAddr = sim.Signal("cam_addr", indexBits)
	camAddr := hw.camAddr
	if camMode {
		banks := [infobase.NumLevels]*camBank{}
		var hits, addrs rtl.Sigs
		for lv := 0; lv < infobase.NumLevels; lv++ {
			key := key20
			if lv == 0 {
				key = hw.PacketID
			}
			banks[lv] = newCAMBank(sim, "cam"+string(byte('1'+lv)), infobase.EntriesPerLevel,
				wen[lv], wcnt[lv], idxWD[lv], hw.Reset, key, wcnt[lv])
			hits = append(hits, banks[lv].hit)
			addrs = append(addrs, banks[lv].addr)
		}
		sim.Comb(func() {
			lvi := selected()
			camHit.SetBool(banks[lvi].hit.Bool())
			camAddr.Set(banks[lvi].addr.Get())
		}, join(rtl.Sigs{selLevel}, hits, addrs), rtl.Sigs{camHit, camAddr})
	}
	sim.Comb(func() {
		st := hw.IBIState.Get()
		switch {
		case st == ibiRead || st == ibiReadLatch:
			// Direct read-out: the address comes from data_in.
			ibRAddr.Set(hw.DataIn.Get())
		case camMode:
			ibRAddr.Set(camAddr.Get())
		default:
			ibRAddr.Set(hw.RIndex.Get())
		}
	}, rtl.Sigs{hw.IBIState, hw.DataIn, camAddr, hw.RIndex}, rtl.Sigs{ibRAddr})

	// Search module decode (Figure 11's outputs), the one combinational
	// process the search state reaches: the compare outcome, the read
	// counter's controls — held clear while the module is idle,
	// incremented when a compare misses and more entries remain — and the
	// completion pulses.
	rEn := sim.Signal("r_en", 1)
	rClr := sim.Signal("r_clr", 1)
	rtl.NewCounter(sim, hw.RIndex, rEn, nil, nil, nil, rClr)
	sim.Comb(func() {
		st := hw.SrchState.Get()
		comparing := st == srCompare
		hit := comparing && aeb20.Bool()
		if selLevel.Get() == uint64(infobase.Level1) {
			hit = comparing && aeb32.Bool()
		}
		last := comparing && aeb10.Bool()
		match.SetBool(hit)
		exhausted.SetBool(last)
		rClr.SetBool(hw.Reset.Bool() || st == srIdle)
		rEn.SetBool(comparing && !hit && !last)
		done := st == srFound || st == srNotFound
		srchDone.SetBool(done)
		itemFound.SetBool(st == srFound)
		hw.LookupDone.SetBool(done)
	}, rtl.Sigs{hw.SrchState, selLevel, aeb32, aeb20, aeb10, hw.Reset},
		rtl.Sigs{match, exhausted, rClr, rEn, srchDone, itemFound, hw.LookupDone})

	// Search result registers: latch the label and operation components
	// the cycle the compare hits ("a delay occurs so the values can
	// appear"). They deliberately keep their values on a miss — the
	// figures check that label_out/operation_out remain unchanged.
	resEn := sim.Signal("res_en", 1)
	rtl.NewRegister(sim, lblRDSel, hw.LabelOut, resEn, hw.Reset)
	rtl.NewRegister(sim, opRDSel, hw.OperationOut, resEn, hw.Reset)
	idxOutEn := sim.Signal("idxout_en", 1)
	idxOutD := sim.Signal("idxout_d", 32)
	rtl.NewRegister(sim, idxOutD, hw.IndexOut, idxOutEn, hw.Reset)
	resReads := rtl.Sigs{hw.IBIState, match, selLevel, idxRD[0], idxRDSel20}
	if camMode {
		resReads = append(resReads, hw.SrchState, camHit)
	}
	sim.Comb(func() {
		readLatch := hw.IBIState.Get() == ibiReadLatch
		resEn.SetBool(match.Bool() || readLatch ||
			(camMode && hw.SrchState.Get() == srWait && camHit.Bool()))
		idxOutEn.SetBool(readLatch)
		if selLevel.Get() == uint64(infobase.Level1) {
			idxOutD.Set(idxRD[0].Get())
		} else {
			idxOutD.Set(idxRDSel20.Get())
		}
	}, resReads, rtl.Sigs{resEn, idxOutEn, idxOutD})

	// --- search state machine (Figure 11) ------------------------------
	rtl.NewFSM(sim, hw.SrchState, func() uint64 {
		if hw.Reset.Bool() {
			return srIdle
		}
		switch hw.SrchState.Get() {
		case srIdle:
			if srchEnbl.Bool() {
				if camMode {
					return srCAMMatch
				}
				if wSel.Get() == 0 {
					return srNotFound // empty level: nothing to scan
				}
				return srRead
			}
			return srIdle
		case srCAMMatch:
			// The CAM resolved the address combinationally; the read
			// port was presented this cycle.
			return srWait
		case srRead:
			return srWait
		case srWait:
			if camMode {
				if camHit.Bool() {
					return srFound
				}
				return srNotFound
			}
			return srCompare
		case srCompare:
			switch {
			case match.Bool():
				return srFound
			case exhausted.Bool():
				return srNotFound
			default:
				return srRead
			}
		default: // srFound, srNotFound
			return srIdle
		}
	}, rtl.Sigs{hw.Reset, srchEnbl, wSel, camHit, match, exhausted})
	sim.Comb(func() {
		srchEnbl.SetBool(hw.LSIState.Get() == lsiSearchEnable || hw.IBIState.Get() == ibiSearchEnable)
	}, rtl.Sigs{hw.LSIState, hw.IBIState}, rtl.Sigs{srchEnbl})

	// --- information base interface (Figure 10) ------------------------
	rtl.NewFSM(sim, hw.IBIState, func() uint64 {
		if hw.Reset.Bool() {
			return ibiIdle
		}
		switch hw.IBIState.Get() {
		case ibiIdle:
			if hw.MainState.Get() == mIBActive {
				switch Command(hw.ExtOp.Get()) {
				case CmdWritePair:
					return ibiWritePair
				case CmdReadPair:
					return ibiRead
				default:
					return ibiSearchEnable
				}
			}
			return ibiIdle
		case ibiRead:
			return ibiReadLatch
		case ibiReadLatch:
			return ibiDone
		case ibiWritePair:
			return ibiIdle
		case ibiSearchEnable:
			if srchDone.Bool() {
				return ibiDone
			}
			return ibiSearchEnable
		default: // ibiDone
			return ibiIdle
		}
	}, rtl.Sigs{hw.Reset, hw.MainState, hw.ExtOp, srchDone})
	sim.Comb(func() {
		st := hw.IBIState.Get()
		ibiDoneSig.SetBool(st == ibiWritePair || st == ibiDone)
	}, rtl.Sigs{hw.IBIState}, rtl.Sigs{ibiDoneSig})

	// --- label stack interface (Figure 9) -------------------------------
	verifyDiscard := sim.Signal("verify_discard", 1)
	sim.Comb(func() {
		op := label.Op(hw.OperationOut.Get())
		had := hadTop.Bool()
		growth := 1
		if had {
			growth = 2
		}
		bad := hw.TTLQ.Get() == 0 ||
			op == label.OpNone ||
			(!had && hw.RtrType.Get() == uint64(LSR)) ||
			(!had && op != label.OpPush) ||
			(op == label.OpPush && int(hw.Stack.Size.Get())+growth > label.MaxDepth)
		verifyDiscard.SetBool(bad)
	}, rtl.Sigs{hw.OperationOut, hadTop, hw.TTLQ, hw.RtrType, hw.Stack.Size}, rtl.Sigs{verifyDiscard})

	rtl.NewFSM(sim, hw.LSIState, func() uint64 {
		if hw.Reset.Bool() {
			return lsiIdle
		}
		switch hw.LSIState.Get() {
		case lsiIdle:
			if hw.MainState.Get() == mLblActive {
				switch Command(hw.ExtOp.Get()) {
				case CmdUserPush:
					return lsiUserPush
				case CmdUserPop:
					return lsiUserPop
				case CmdUpdate:
					return lsiSearchEnable
				}
			}
			return lsiIdle
		case lsiUserPush, lsiUserPop:
			return lsiIdle
		case lsiSearchEnable:
			if srchDone.Bool() {
				if itemFound.Bool() {
					return lsiReadResult
				}
				return lsiDiscard
			}
			return lsiSearchEnable
		case lsiReadResult:
			return lsiRemoveTop
		case lsiRemoveTop:
			return lsiUpdateTTL
		case lsiUpdateTTL:
			return lsiVerifyInfo
		case lsiVerifyInfo:
			if verifyDiscard.Bool() {
				return lsiDiscard
			}
			switch label.Op(hw.OperationOut.Get()) {
			case label.OpPop:
				return lsiUpdateTop
			case label.OpSwap:
				return lsiLoadNew
			default: // label.OpPush
				return lsiPushOld
			}
		case lsiUpdateTop:
			return lsiDone
		case lsiLoadNew:
			return lsiPushNew
		case lsiPushOld:
			return lsiLoadNew
		case lsiPushNew:
			return lsiDone
		case lsiDiscard:
			return lsiDone
		default: // lsiDone
			return lsiIdle
		}
	}, rtl.Sigs{hw.Reset, hw.MainState, hw.ExtOp, srchDone, itemFound, verifyDiscard, hw.OperationOut})
	sim.Comb(func() {
		st := hw.LSIState.Get()
		lsiDoneSig.SetBool(st == lsiUserPush || st == lsiUserPop || st == lsiDone)
	}, rtl.Sigs{hw.LSIState}, rtl.Sigs{lsiDoneSig})

	// Data path control decode for the label stack interface.
	sim.Comb(func() {
		st := hw.LSIState.Get()
		had := hadTop.Bool()

		// Stack controls.
		stkClr.SetBool(hw.Reset.Bool() || st == lsiDiscard)
		stkPop.SetBool(st == lsiRemoveTop || st == lsiUserPop)
		stkPush.SetBool(st == lsiUserPush || st == lsiPushNew || (st == lsiPushOld && had))
		stkSetTTL.SetBool(st == lsiUpdateTop && hw.Stack.Size.Get() > 0)
		switch st {
		case lsiPushOld:
			// Re-push the removed entry with the decremented TTL.
			stkDin.Set(oldQ.Get()&^uint64(0xff) | hw.TTLQ.Get())
		case lsiPushNew:
			stkDin.Set(newQ.Get())
		default:
			stkDin.Set(hw.DataIn.Get())
		}

		// TTL counter: loaded from the removed top (or the control path
		// at an empty-stack ingress) while in remove-top, decremented in
		// update-TTL.
		ttlLd.SetBool(st == lsiRemoveTop)
		if hw.Stack.Size.Get() > 0 {
			ttlD.Set(uint64(label.Unpack(uint32(hw.Stack.Top.Get())).TTL))
		} else {
			ttlD.Set(hw.TTLIn.Get())
		}
		ttlDown.SetBool(true)
		ttlEn.SetBool(st == lsiUpdateTTL)

		// Old-entry and had-top registers capture the pre-pop state.
		oldEn.SetBool(st == lsiRemoveTop)
		hadTopD.SetBool(hw.Stack.Size.Get() > 0)

		// New-entry assembly: label from the information base, CoS from
		// the old top (or the control path at ingress), TTL from the
		// counter. The stack file supplies the S bit.
		newEn.SetBool(st == lsiLoadNew)
		cos := hw.CoSIn.Get()
		if had {
			cos = uint64(label.Unpack(uint32(oldQ.Get())).CoS)
		}
		newD.Set(hw.LabelOut.Get()<<12 | cos<<9 | hw.TTLQ.Get())
	}, rtl.Sigs{hw.LSIState, hadTop, hw.Reset, hw.Stack.Size, hw.Stack.Top, oldQ, newQ,
		hw.TTLQ, hw.DataIn, hw.TTLIn, hw.CoSIn, hw.LabelOut},
		rtl.Sigs{stkClr, stkPop, stkPush, stkSetTTL, stkDin, ttlLd, ttlD, ttlDown, ttlEn,
			oldEn, hadTopD, newEn, newD})

	// --- main interface controller (Figure 8) ---------------------------
	rtl.NewFSM(sim, hw.MainState, func() uint64 {
		if hw.Reset.Bool() {
			return mIdle
		}
		switch hw.MainState.Get() {
		case mIdle:
			if hw.Enable.Bool() {
				switch Command(hw.ExtOp.Get()) {
				case CmdUserPush, CmdUserPop, CmdUpdate:
					return mLblActive
				case CmdWritePair, CmdLookup, CmdReadPair:
					return mIBActive
				}
			}
			return mIdle
		case mLblActive:
			if lsiDoneSig.Bool() {
				return mIdle
			}
			return mLblActive
		default: // mIBActive
			if ibiDoneSig.Bool() {
				return mIdle
			}
			return mIBActive
		}
	}, rtl.Sigs{hw.Reset, hw.Enable, hw.ExtOp, lsiDoneSig, ibiDoneSig})

	// --- completion and discard flags -----------------------------------
	// The reset sequencer takes three cycles: two to clear the data path,
	// one to pulse done.
	hw.rstCnt = sim.Signal("rst_cnt", 2)
	rstCnt := hw.rstCnt
	rstEn := sim.Signal("rst_en", 1)
	rstClr := sim.Signal("rst_clr", 1)
	rtl.NewCounter(sim, rstCnt, rstEn, nil, nil, nil, rstClr)
	sim.Comb(func() {
		rstEn.SetBool(hw.Reset.Bool() && rstCnt.Get() < 2)
		rstClr.SetBool(!hw.Reset.Bool())
	}, rtl.Sigs{hw.Reset, rstCnt}, rtl.Sigs{rstEn, rstClr})

	doneD := sim.Signal("done_d", 1)
	rtl.NewRegister(sim, doneD, hw.Done, nil, nil)
	sim.Comb(func() {
		doneD.SetBool((hw.MainState.Get() == mLblActive && lsiDoneSig.Bool()) ||
			(hw.MainState.Get() == mIBActive && ibiDoneSig.Bool()) ||
			(hw.Reset.Bool() && rstCnt.Get() == 2))
	}, rtl.Sigs{hw.MainState, lsiDoneSig, ibiDoneSig, hw.Reset, rstCnt}, rtl.Sigs{doneD})

	// packetdiscard: sticky per command — set by a failed search or a
	// discard state, cleared when the next command starts.
	pdD := sim.Signal("pd_d", 1)
	pdEn := sim.Signal("pd_en", 1)
	pdClr := sim.Signal("pd_clr", 1)
	rtl.NewRegister(sim, pdD, hw.PacketDiscard, pdEn, pdClr)
	sim.Comb(func() {
		// The search module's not-found state, read off its pulses so
		// that the search loop's state changes do not reach this process.
		notFound := srchDone.Bool() && !itemFound.Bool()
		set := notFound || hw.LSIState.Get() == lsiDiscard
		pdD.SetBool(true)
		pdEn.SetBool(set)
		pdClr.SetBool(hw.Reset.Bool() ||
			(hw.MainState.Get() == mIdle && hw.Enable.Bool() && !set))
	}, rtl.Sigs{srchDone, itemFound, hw.LSIState, hw.Reset, hw.MainState, hw.Enable}, rtl.Sigs{pdD, pdEn, pdClr})

	sim.Settle()
	return hw
}

// join concatenates signal lists for a sensitivity declaration.
func join(lists ...rtl.Sigs) rtl.Sigs {
	var out rtl.Sigs
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// SearchFound reports whether the search module is presenting a hit this
// cycle (the lookup_done pulse with a match) — the signal a bus-attached
// status register latches.
func (hw *HW) SearchFound() bool { return hw.SrchState.Get() == srFound }

// WriteCount returns the number of pairs stored at level lv (the level's
// write counter), which must be valid.
func (hw *HW) WriteCount(lv infobase.Level) int { return int(hw.wcnt[lv-1].Get()) }

// InfoBaseSnapshot reads the information base memories into a software
// store copy (the first count entries of each level), for test-bench
// verification.
func (hw *HW) InfoBaseSnapshot() infobase.Store {
	b := infobase.New()
	for lv := 0; lv < infobase.NumLevels; lv++ {
		n := hw.WriteCount(infobase.Level(lv + 1))
		for i := 0; i < n && i < infobase.EntriesPerLevel; i++ {
			p := infobase.Pair{
				Index:    infobase.Key(hw.idxRAM[lv].Peek(i)),
				NewLabel: label.Label(hw.lblRAM[lv].Peek(i)),
				Op:       label.Op(hw.opRAM[lv].Peek(i)),
			}
			if err := b.Write(infobase.Level(lv+1), p); err != nil {
				panic("lsm: info base snapshot: " + err.Error())
			}
		}
	}
	return b
}
