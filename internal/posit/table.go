package posit

// Precomputed fast paths for small formats. An n-bit posit has only 2^n
// patterns, so for the formats the paper actually runs (n <= 8, and
// anything up to n = 12) decode is a table lookup, and for n <= 8 whole
// binary operations collapse into 2^n × 2^n result tables — the same
// precomputation trick SoftPosit-style libraries and posit softcores use.
// Tables are built lazily on first use and cached per (n, es) for the
// lifetime of the process. Decode tables are built from the bit-serial
// reference decoder; operation tables are built from the direct (untabled)
// Mul/Add implementations, whose own encode step is independently checked
// against the bit-serial reference encoder by the exhaustive equivalence
// tests.
//
// Memory cost per format: a decode table is 4·2^n bytes (16 KiB at the
// n = 12 ceiling); each operation table is 2^(2n) bytes (64 KiB per op at
// n = 8). A full §IV-B sweep (n in [5,8], es in [0,3]) tops out around
// 2 MiB of tables process-wide.

import (
	"sync"
	"sync/atomic"
)

const (
	// decTabMaxN is the widest format that gets a decode table; wider
	// formats use the LZC decoder.
	decTabMaxN = 12
	// opTabMaxN is the widest format that gets full Mul/Add result
	// tables (64 KiB per op at n = 8; n = 9 would already cost 256 KiB).
	opTabMaxN = 8
)

// A decode-table entry packs one decoded pattern into a uint32:
//
//	bits  0-15  sig  (significand with hidden bit; < 2^12 at n = 12)
//	bits 16-25  sf + decSFBias (10 bits; |sf| <= 352 at n = 12, es = 5)
//	bits 26-29  sigW - 1 (4 bits; sigW <= 12)
//	bit  30     NaR marker (whole entry == decNaREntry)
//	bit  31     sign
//
// The zero pattern packs to 0 (sig = 0 is impossible for a real value),
// so kernels can classify zero/NaR/real from the entry alone.
const (
	decSFBias   = 512
	decSFShift  = 16
	decSFMask   = 0x3FF
	decSigMask  = 0xFFFF
	decWShift   = 26
	decWMask    = 0xF
	decNaREntry = uint32(1) << 30
	decSignBit  = uint32(1) << 31
)

// packDec packs a decoded value into a table entry.
func packDec(d decoded) uint32 {
	e := uint32(d.sig) & decSigMask
	e |= uint32(d.sf+decSFBias) << decSFShift
	e |= uint32(d.sigW-1) << decWShift
	if d.sign {
		e |= decSignBit
	}
	return e
}

// unpackDec is the inverse of packDec.
func unpackDec(e uint32) decoded {
	return decoded{
		sign: e&decSignBit != 0,
		sf:   int((e>>decSFShift)&decSFMask) - decSFBias,
		sig:  uint64(e & decSigMask),
		sigW: uint((e>>decWShift)&decWMask) + 1,
	}
}

// Table caches, indexed by (n, es). Pointers are published atomically so
// the hot paths pay one atomic load; the build itself is serialized by
// tabMu (a duplicate build would be harmless but wasteful).
var (
	tabMu   sync.Mutex
	decTabs [decTabMaxN + 1][MaxES + 1]atomic.Pointer[[]uint32]
	mulTabs [opTabMaxN + 1][MaxES + 1]atomic.Pointer[[]uint8]
	addTabs [opTabMaxN + 1][MaxES + 1]atomic.Pointer[[]uint8]
)

// decTab returns the decode table for f, building it on first use, or nil
// when f is too wide for one.
func (f Format) decTab() []uint32 {
	if f.n > decTabMaxN {
		return nil
	}
	if p := decTabs[f.n][f.es].Load(); p != nil {
		return *p
	}
	return f.buildDecTab()
}

func (f Format) buildDecTab() []uint32 {
	tabMu.Lock()
	defer tabMu.Unlock()
	if p := decTabs[f.n][f.es].Load(); p != nil {
		return *p
	}
	t := make([]uint32, uint64(1)<<f.n)
	nar := f.signBit()
	for bits := uint64(0); bits < uint64(len(t)); bits++ {
		switch bits {
		case 0:
			t[bits] = 0
		case nar:
			t[bits] = decNaREntry
		default:
			t[bits] = packDec(Posit{f: f, bits: bits}.decodeRef())
		}
	}
	decTabs[f.n][f.es].Store(&t)
	return t
}

// mulTab returns the full 2^n × 2^n multiplication table for f (result
// pattern indexed by p.bits<<n | q.bits), or nil when f is too wide.
func (f Format) mulTab() []uint8 {
	if f.n > opTabMaxN {
		return nil
	}
	if p := mulTabs[f.n][f.es].Load(); p != nil {
		return *p
	}
	return f.buildOpTab(&mulTabs[f.n][f.es], Posit.mulRef)
}

// addTab is mulTab's addition counterpart.
func (f Format) addTab() []uint8 {
	if f.n > opTabMaxN {
		return nil
	}
	if p := addTabs[f.n][f.es].Load(); p != nil {
		return *p
	}
	return f.buildOpTab(&addTabs[f.n][f.es], Posit.addRef)
}

func (f Format) buildOpTab(slot *atomic.Pointer[[]uint8], op func(Posit, Posit) Posit) []uint8 {
	// Build the decode table first: op runs decode(), and tabMu is not
	// reentrant.
	f.decTab()
	tabMu.Lock()
	defer tabMu.Unlock()
	if p := slot.Load(); p != nil {
		return *p
	}
	count := uint64(1) << f.n
	t := make([]uint8, count*count)
	for a := uint64(0); a < count; a++ {
		pa := Posit{f: f, bits: a}
		row := t[a<<f.n : (a+1)<<f.n]
		for b := uint64(0); b < count; b++ {
			row[b] = uint8(op(pa, Posit{f: f, bits: b}).bits)
		}
	}
	slot.Store(&t)
	return t
}

// pdec is a pre-decoded operand for the batched kernels: everything a MAC
// needs, with the per-operand decode hoisted out of the accumulation loop.
// Zero and NaR carry sig = 0 so they contribute nothing when a branchless
// loop accumulates them anyway; cls distinguishes them where it matters.
type pdec struct {
	sig uint64 // significand with hidden bit (0 for zero/NaR)
	sgn uint64 // sign as a XOR mask: 0 positive, ^0 negative
	adj int32  // scale of sig's LSB: sf - (sigW - 1)
	cls uint8  // pdReal, pdZero or pdNaR
}

const (
	pdReal = iota
	pdZero
	pdNaR
)

// macEntry derives the MAC inputs for a pair of packed decode-table
// entries: the significand product, its register shift at fraction depth
// fb, and the sign as a XOR mask. This is the only place outside
// packDec/unpackDec that knows the entry layout; zero/NaR entries
// (sig = 0) yield prod = 0 and so accumulate nothing wherever the caller
// uses the result branchlessly.
func macEntry(ew, ea uint32, fb int) (prod uint64, shift uint, sm uint64) {
	prod = uint64(ew&decSigMask) * uint64(ea&decSigMask)
	// LSB weight of the product: sf_w+sf_a-(w_w-1)-(w_a-1); always at or
	// above bit 0 of an exact register for real operands.
	adj := int(ew>>decSFShift&decSFMask) + int(ea>>decSFShift&decSFMask) -
		2*decSFBias - int(ew>>decWShift&decWMask) - int(ea>>decWShift&decWMask)
	shift = uint(fb + adj)
	sm = -uint64((ew ^ ea) >> 31)
	return prod, shift, sm
}

// predecodeBits classifies and decodes one n-bit pattern. t is f's decode
// table (may be nil for wide formats).
func predecodeBits(f Format, t []uint32, bits uint64) pdec {
	var d decoded
	if t != nil {
		e := t[bits]
		if e == 0 {
			return pdec{cls: pdZero}
		}
		if e == decNaREntry {
			return pdec{cls: pdNaR}
		}
		d = unpackDec(e)
	} else {
		p := Posit{f: f, bits: bits}
		if bits == 0 {
			return pdec{cls: pdZero}
		}
		if p.IsNaR() {
			return pdec{cls: pdNaR}
		}
		d = p.decodeLZC()
	}
	out := pdec{
		sig: d.sig,
		adj: int32(d.sf) - int32(d.sigW) + 1,
		cls: pdReal,
	}
	if d.sign {
		out.sgn = ^uint64(0)
	}
	return out
}

// WarmTables eagerly builds the decode and operation tables for f (a
// no-op for formats wider than the table ceilings). Callers that care
// about first-inference latency can warm formats up front instead of
// paying the lazy build on the first arithmetic op.
func WarmTables(f Format) {
	f.mustValid()
	f.decTab()
	f.mulTab()
	f.addTab()
}

// TableMemoryBytes reports the memory the fast-path tables for f occupy
// once built: the decode table plus both operation tables (0 for formats
// above the table ceilings).
func TableMemoryBytes(f Format) int {
	f.mustValid()
	total := 0
	if f.n <= decTabMaxN {
		total += 4 << f.n
	}
	if f.n <= opTabMaxN {
		total += 2 << (2 * f.n)
	}
	return total
}
