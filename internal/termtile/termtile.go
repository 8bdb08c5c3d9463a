// Package termtile is the term-table batch kernel of the posit and float
// arms for formats of at most 8 bits: per-format Tables, built and cached
// here, and one Kernel over them.
//
// Tables hold the full signed MAC term of every (weight, activation)
// pattern pair at the register's fraction depth, so the inner loop is
// acc[s] += Terms[w<<8|a]: no multiply, no shift, no sign fix-up at MAC
// time. The flush is walked in tiles of 256 samples, each transposed
// once into column-major bytes through the activation map; the loop order
// is (row j, weight i, sample s), so one table row stays hot across the
// tile. Zeros add nothing to an exact sum, so a column with enough of
// them is compacted into entries s | a<<8 of its nonzero activations and
// the row loop runs acc[uint8(e)] += row[e>>8] over those alone; other
// columns keep the dense loop. Skipping a zero cannot change a result.
// Each sum wraps in the arm's register width and rounds through a table
// keyed by its bit length and top bits (bitutil.RoundKey), not through
// the encoder. A special activation, weight or bias poisons its sample or
// row, which then yields the special pattern.
//
// An arm supplies only its Format (pattern width, fraction depth, special
// pattern, operand decoder, negation and rounding encoder) and its
// register width; New builds a layer's kernel from its weight and bias
// patterns. Results are bit-identical to the arm's MAC (Quire or
// Accumulator) per sample.
package termtile

import (
	"sync"

	"repro/internal/bitutil"
)

// tileSize is the sample tile: a sample's index within its tile fits the
// low byte of a compacted entry, and a kernel's tile scratch stays
// O(in × tileSize) whatever the flush size.
const tileSize = 256

// minCompact is the smallest tile compact considers: below it the pass's
// fixed cost per column outweighs the few table reads it could save, and
// a single-sample flush measured 20% slower with it.
const minCompact = 16

// Tables is one format's data for the kernel, built once by TablesOf.
type Tables struct {
	// Terms[w<<8|a] is the signed MAC term of weight pattern w and
	// activation pattern a at the register's fraction depth: 2^n rows of
	// 256, with zero for zero and special operands. The fixed 256-entry
	// stride lets the row loop view a row as a *[256]int64 and index it
	// with a byte and no bounds check.
	Terms []int64
	// Act[p] is byte p as a tile stores it: p & mask for a real nonzero
	// pattern, 0 for zero and special ones (their terms are all zero),
	// with bit 8 set for a special (NaR, NaN, ±Inf). It covers all 256
	// bytes, so the patterns of formats narrower than 8 bits read the
	// same with any bits above their width.
	Act [256]uint16
	// Bias[p] is the term of bias pattern p at the register's fraction
	// depth: 0 for zero and special patterns. It covers all 256 bytes,
	// as Act does.
	Bias [256]int64
	// Round[bitutil.RoundKey(m)] is the pattern of the positive exact
	// value m at the register's fraction depth. An 8-bit format keeps at
	// most five fraction bits, so the key decides the rounding.
	Round *[64 << 8]uint8
	// Neg[p] is the pattern of the negation of pattern p.
	Neg [256]uint8
	// Special is the pattern a poisoned sum yields (NaR, or a float's NaN).
	Special uint64
}

// Format is what an arm supplies of a format of at most 8 bits to build
// its Tables. Its dynamic value keys the table cache, so it must be
// comparable, and equal values must describe the same format.
type Format interface {
	// Bits is the pattern width n, 1..8.
	Bits() uint
	// FracBits is the register's fraction depth fb: a value v is the
	// term v·2^fb, an integer for every real operand and product.
	FracBits() int
	// Special is the pattern a poisoned sum yields.
	Special() uint64
	// Decode returns the operand of pattern p < 2^n.
	Decode(p uint64) Operand
	// Negate returns the pattern of the negation of pattern p < 2^n.
	Negate(p uint64) uint64
	// Round returns the pattern of the positive value m·2^lsb, rounded
	// once.
	Round(m uint64, lsb int) uint64
}

// Operand is one decoded pattern: (-1)^Neg · Sig · 2^LSB, zero when Sig
// is 0. A Special operand (NaR, NaN, ±Inf) poisons its sample or row and
// adds no term.
type Operand struct {
	Sig     uint64
	LSB     int
	Neg     bool
	Special bool
}

// Kernel is one layer's term-table datapath: its weights as table-row
// offsets, its bias terms and reused tile scratch. Not safe for
// concurrent use.
type Kernel struct {
	t       *Tables
	in, out int
	// wRow[j*in+i] is the Terms offset (pattern << 8) of weight (j,i); -1
	// for zero and special weights, whose table rows are all zero.
	wRow     []int32
	biasTerm []int64
	// specialRow[j] records a special weight or bias in row j.
	specialRow []bool
	// wrap sign-extends a sum from the register width: sums wrap there.
	wrap uint

	// Tile scratch: the tile's stored bytes column-major (actT[i*ts+s]),
	// the compacted entries of its sparse columns, each column's span of
	// them, the registers of the current row and the per-sample special
	// flags.
	actT  []uint8
	lists []uint16
	spans []int32
	acc   [tileSize]int64
	spS   [tileSize]bool
}

// New builds the kernel of a layer over f's tables: len(w) rows of
// len(w[0]) weight patterns and one bias pattern per row, in any
// uint64-backed code type, of which only the low 8 bits are read. Each
// sum wraps in a two's-complement register of width bits (1..64), as the
// arm's register does.
func New[C ~uint64](f Format, w [][]C, b []C, width uint) *Kernel {
	return newKernel(TablesOf(f), w, b, width)
}

func newKernel[C ~uint64](t *Tables, w [][]C, b []C, width uint) *Kernel {
	out, in := len(w), len(w[0])
	if len(b) != out {
		panic("termtile: one bias per row")
	}
	k := &Kernel{
		t:          t,
		in:         in,
		out:        out,
		wRow:       make([]int32, out*in),
		biasTerm:   make([]int64, out),
		specialRow: make([]bool, out),
		wrap:       64 - width,
		spans:      make([]int32, 2*in),
	}
	for j, row := range w {
		if len(row) != in {
			panic("termtile: ragged weight matrix")
		}
		k.biasTerm[j] = t.Bias[uint8(b[j])]
		special := t.Act[uint8(b[j])]>>8 != 0
		dst := k.wRow[j*in : (j+1)*in]
		for i, p := range row {
			c := t.Act[uint8(p)]
			special = special || c>>8 != 0
			dst[i] = -1
			if uint8(c) != 0 {
				dst[i] = int32(uint8(c)) << 8
			}
		}
		k.specialRow[j] = special
	}
	return k
}

// Forward computes dst[s*out+j] = round(b[j] + Σ_i W[j][i]·act[s*in+i])
// for every sample s of a flush: flat sample-major planes of patterns in
// any uint64-backed code type, read and written in place, with len(act) =
// b·in and len(dst) = b·out. No activation function is applied. Only the
// low 8 bits of an activation are read.
func Forward[C ~uint64](k *Kernel, act, dst []C, b int) {
	if b < 0 || len(act) != b*k.in || len(dst) != b*k.out {
		panic("termtile: batch size mismatch")
	}
	if n := k.in * min(b, tileSize); len(k.actT) < n {
		k.actT = make([]uint8, n)
		k.lists = make([]uint16, n)
	}
	for s0 := 0; s0 < b; s0 += tileSize {
		ts := min(tileSize, b-s0)
		forwardTile(k, act[s0*k.in:(s0+ts)*k.in], dst[s0*k.out:(s0+ts)*k.out], ts)
	}
}

// forwardTile runs one tile of ts <= tileSize samples: act and dst are the
// tile's slices of the flush planes.
func forwardTile[C ~uint64](k *Kernel, act, dst []C, ts int) {
	t, in, out := k.t, k.in, k.out
	actT, spS := k.actT[:in*ts], k.spS[:ts]
	// Decode once per tile: transpose the stored bytes into column-major
	// order (column s-contiguous, matching the dense loop) and flag the
	// samples carrying a special activation, which poisons every row,
	// exactly as per-sample accumulation would.
	for s := 0; s < ts; s++ {
		var special uint16
		for i, c := range act[s*in : (s+1)*in] {
			v := t.Act[uint8(c)]
			special |= v
			actT[i*ts+s] = uint8(v)
		}
		spS[s] = special>>8 != 0
	}
	sparse := compact(actT, k.lists, k.spans, ts, out)
	acc := &k.acc
	for j := 0; j < out; j++ {
		if k.specialRow[j] {
			for s := 0; s < ts; s++ {
				dst[s*out+j] = C(t.Special)
			}
			continue
		}
		bt := k.biasTerm[j]
		for s := 0; s < ts; s++ {
			acc[s] = bt
		}
		k.addRow(acc, k.wRow[j*in:(j+1)*in], actT, ts, sparse)
		for s := 0; s < ts; s++ {
			v := t.Special
			if !spS[s] {
				v = k.round(acc[s])
			}
			dst[s*out+j] = C(v)
		}
	}
}

// compact builds a tile's entry lists from its column-major bytes actT
// ([in][ts], 0 for every activation whose terms are all zero) for a
// layer of out rows. A column whose zero share reaches 3/8 + 1/out keeps
// only its nonzero bytes, as entries s | a<<8 in
// lists[spans[2i]:spans[2i+1]]; the others stay dense (spans[2i+1] < 0).
// lists holds in·ts entries and spans 2·in. compact reports whether any
// column was compacted; tiles under minCompact samples stay dense.
//
// The threshold is the measured crossover (Intel Xeon, 256-sample tile,
// medians of 7 interleaved runs): with zeros spread evenly over the
// columns, compacting every column of a 16×30 or 117×32 layer lost at a
// quarter zero, broke even between 3/8 and 7/16, and won by 13–38% from
// a half on. An entry costs more than a dense step and takes one pass to
// build; the 1/out term charges that pass to the rows it serves, so a
// 32×2 layer's columns compact only when nearly all zero.
func compact(actT []uint8, lists []uint16, spans []int32, ts, out int) (sparse bool) {
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

// addRow adds one row's terms for a tile to acc: wRow holds the row's
// table offsets, actT the tile's column-major bytes, and sparse says
// whether compact compacted any column. Out of line: inlined into the
// tile loop, its loop state spills to the stack.
//
//go:noinline
func (k *Kernel) addRow(acc *[tileSize]int64, wRow []int32, actT []uint8, ts int, sparse bool) {
	lists, spans := k.lists, k.spans
	for i, off := range wRow {
		if off < 0 {
			continue // zero or special weight: all-zero table row
		}
		// One table row (2 KiB) stays hot across the tile; the fixed-size
		// array views remove the inner bounds checks.
		row := (*[256]int64)(k.t.Terms[off:])
		if sparse && spans[2*i+1] >= 0 {
			if lo, hi := spans[2*i], spans[2*i+1]; hi > lo {
				addEntries(acc, row, lists[lo:hi])
			}
			continue
		}
		col := actT[i*ts : i*ts+ts]
		a := acc[:len(col)]
		for s, p := range col {
			a[s] += row[p]
		}
	}
}

// addEntries adds row[a] to acc[s] for each entry s | a<<8 of a
// compacted column. The loop stays out of line: inlined into the row
// loop, it ran slower.
//
//go:noinline
func addEntries(acc *[tileSize]int64, row *[256]int64, ents []uint16) {
	for _, e := range ents {
		acc[uint8(e)] += row[e>>8]
	}
}

// round rounds one register to a pattern: the sum wraps in the register
// width, its magnitude reads the rounding table and a negative sum's
// pattern is negated.
func (k *Kernel) round(a int64) uint64 {
	sh := k.wrap & 63 // wrap < 64: the mask spares the shifts' overflow fix-up
	a = a << sh >> sh
	m := uint64(a)
	if a < 0 {
		m = -m
	}
	if m == 0 {
		return 0
	}
	p := k.t.Round[bitutil.RoundKey(m)&(64<<8-1)]
	if a < 0 {
		p = k.t.Neg[p]
	}
	return uint64(p)
}

// The table builder follows the kernel in this file because the compiler
// lays functions out in source order: placed first, it moved the row
// loops of addRow and addEntries across a 64-byte line in positrond and
// benchsnap, where they read slower.

// The table cache: one entry per format, whose tables are built once.
// Concurrent first uses of a format wait for one build and share it;
// other formats build beside it.
var (
	tablesMu sync.Mutex
	tables   = map[Format]*cached{}
)

type cached struct {
	once sync.Once
	t    *Tables
}

// TablesOf returns f's tables, building them on first use and caching
// them for the process lifetime. Memory cost per format: 2^n × 256 × 8
// bytes of terms (512 KiB at n = 8), 16 KiB of rounding and 2.75 KiB
// of per-byte maps.
func TablesOf(f Format) *Tables {
	tablesMu.Lock()
	c := tables[f]
	if c == nil {
		c = new(cached)
		tables[f] = c
	}
	tablesMu.Unlock()
	c.once.Do(func() { c.t = build(f) })
	return c.t
}

func build(f Format) *Tables {
	fb, count := f.FracBits(), 1<<f.Bits()
	ops := make([]Operand, count)
	for p := range ops {
		if ops[p] = f.Decode(uint64(p)); ops[p].Special {
			ops[p].Sig = 0
		}
	}
	t := &Tables{
		Terms:   make([]int64, count<<8),
		Round:   new([64 << 8]uint8),
		Special: f.Special(),
	}
	for p := range t.Act {
		q := p & (count - 1)
		switch d := ops[q]; {
		case d.Special:
			t.Act[p] = 1 << 8
		case d.Sig != 0:
			t.Act[p] = uint16(q)
			t.Bias[p] = term(d.Sig, d.LSB, d.Neg, fb)
		}
		t.Neg[p] = uint8(f.Negate(uint64(q)))
	}
	for w, wd := range ops {
		if wd.Sig == 0 {
			continue // zero and special rows stay all-zero
		}
		row := t.Terms[w<<8 : (w+1)<<8]
		for a, ad := range ops {
			if ad.Sig != 0 {
				row[a] = term(wd.Sig*ad.Sig, wd.LSB+ad.LSB, wd.Neg != ad.Neg, fb)
			}
		}
	}
	for key := range t.Round {
		t.Round[key] = uint8(f.Round(bitutil.RoundKeyValue(key), -fb))
	}
	return t
}

// term is the register term of the exact value (-1)^neg · sig · 2^lsb at
// fraction depth fb. The shift is non-negative (no real operand or
// product lies below the register's LSB), and the term fits an int64
// because one product fits the register.
func term(sig uint64, lsb int, neg bool, fb int) int64 {
	v := int64(sig << uint(fb+lsb))
	if neg {
		return -v
	}
	return v
}
