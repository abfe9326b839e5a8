package lsm

import (
	"embeddedmpls/internal/infobase"
	"embeddedmpls/internal/label"
)

// Resources estimates the FPGA resource footprint of the label stack
// modifier, reproducing the paper's closing claim that "the architecture
// presented here satisfies the space requirements of most reconfigurable
// computing environments". Counts follow the data path of Figures 12-13.
type Resources struct {
	// RAMBits is the block memory demand: per level, an index component
	// (32 bits at level 1, 20 at levels 2-3), a label component (20) and
	// an operation component (2), each EntriesPerLevel words deep.
	RAMBits int
	// RegisterBits counts the data path registers: the stack file,
	// old/new entry registers, result registers, TTL counter, address
	// counters and FSM state registers.
	RegisterBits int
	// Comparators lists the comparator widths (the paper's 32/20/10-bit
	// comparators).
	Comparators []int
}

// EstimateResources computes the footprint of the paper's configuration.
func EstimateResources() Resources {
	r := Resources{Comparators: []int{32, 20, 10}}

	// Information base memories.
	perLevelWidths := [infobase.NumLevels]int{
		32 + 20 + 2, // level 1: packet-identifier index
		20 + 20 + 2, // level 2
		20 + 20 + 2, // level 3
	}
	for _, w := range perLevelWidths {
		r.RAMBits += w * infobase.EntriesPerLevel
	}

	// Data path registers. The stack file is what label.Stack holds:
	// MaxDepth entries and an item count.
	r.RegisterBits += 32 * label.MaxDepth // label stack entries
	r.RegisterBits += 2                   // stack item count

	r.RegisterBits += 32     // old-entry register
	r.RegisterBits += 32     // new-entry register
	r.RegisterBits += 20 + 2 // label_out + operation_out
	r.RegisterBits += 32     // index_out
	r.RegisterBits += 8      // TTL counter
	// Address counters: one read index + per-level write counters.
	r.RegisterBits += indexBits * (1 + infobase.NumLevels)
	// Control: main(2) + label stack interface(4) + info base
	// interface(3) + search(3) state registers, done/discard flags,
	// reset sequencer(2).
	r.RegisterBits += 2 + 4 + 3 + 3 + 1 + 1 + 2

	return r
}

// Stratix EP1S40 block memory capacity in bits, from the device family
// datasheet — the part the paper targets.
const StratixEP1S40RAMBits = 3_423_744

// FitsStratixEP1S40 reports whether the estimated memory demand fits the
// paper's target device, and the fraction of its block RAM used.
func (r Resources) FitsStratixEP1S40() (bool, float64) {
	frac := float64(r.RAMBits) / float64(StratixEP1S40RAMBits)
	return r.RAMBits <= StratixEP1S40RAMBits, frac
}
