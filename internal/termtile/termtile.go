// Package termtile holds the tile machinery the posit and minifloat
// term-table batch kernels share. A kernel transposes each tile of a
// flush into column-major byte patterns, Compact turns the columns with
// enough zeros into lists of their nonzero entries, and a kernel's row
// loop adds table terms over the dense columns and, through AddEntries,
// over the lists.
// Zeros add nothing to an exact sum, so skipping them cannot change a
// result.
package termtile

import "repro/internal/bitutil"

// Size is the sample tile: a sample's index within its tile fits the
// low byte of a compacted entry, and a kernel's tile scratch stays
// O(in × Size) whatever the flush size.
const Size = 256

// minCompact is the smallest tile Compact considers: below it the pass's
// fixed cost per column outweighs the few table reads it could save, and
// a single-sample flush measured 20% slower with it.
const minCompact = 16

// Compact builds a tile's entry lists from its column-major patterns
// actT ([in][ts], pattern 0 for every activation whose terms are all
// zero) for a layer of out rows. A column whose zero share reaches
// 3/8 + 1/out keeps only its nonzero patterns, as entries s | a<<8 in
// lists[spans[2i]:spans[2i+1]]; the others stay dense (spans[2i+1] < 0).
// lists holds in·ts entries and spans 2·in. Compact reports whether any
// column was compacted; tiles under minCompact samples stay dense.
//
// The threshold is the measured crossover (Intel Xeon, 256-sample tile,
// medians of 7 interleaved runs): with zeros spread evenly over the
// columns, compacting every column of a 16×30 or 117×32 layer lost at a
// quarter zero, broke even between 3/8 and 7/16, and won by 13–38% from
// a half on. An entry costs more than a dense step and takes one pass to
// build; the 1/out term charges that pass to the rows it serves, so a
// 32×2 layer's columns compact only when nearly all zero.
func Compact(actT []uint8, lists []uint16, spans []int32, ts, out int) (sparse bool) {
	if ts < minCompact {
		return false
	}
	n := 0
	for i := 0; i < len(spans)/2; i++ {
		col := actT[i*ts : i*ts+ts]
		z := bitutil.ZeroBytes(col)
		if 8*z*out < ts*(3*out+8) {
			spans[2*i+1] = -1
			continue
		}
		sparse = true
		m := n
		if z < ts { // an all-zero column keeps an empty list
			for s, a := range col {
				lists[m] = uint16(s) | uint16(a)<<8
				m += int((uint(a) + 0xFF) >> 8)
			}
		}
		spans[2*i], spans[2*i+1] = int32(n), int32(m)
		n = m
	}
	return sparse
}

// AddEntries adds row[a] to acc[s] for each entry s | a<<8 of a
// compacted column. The loop stays out of line: inlined into a kernel's
// row loop, it ran slower.
//
//go:noinline
func AddEntries(acc *[Size]int64, row *[256]int64, ents []uint16) {
	for _, e := range ents {
		acc[uint8(e)] += row[e>>8]
	}
}
