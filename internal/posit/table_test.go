package posit

// Equivalence tests for the precomputed fast paths: every table/LZC/
// shift-based implementation must be bit-identical to its bit-serial
// reference over the ENTIRE operand space for small formats (the paper's
// accuracy claims ride on these paths), and on dense samples beyond.

import (
	"testing"

	"repro/internal/rng"
)

// smallFormats enumerates every format with n <= max and every legal es
// (the tables engage for any es <= MaxES, so the exhaustive equivalence
// bar must cover all of them, not just the experiment sweep's es <= 3).
func smallFormats(max uint) []Format {
	var out []Format
	for n := uint(3); n <= max; n++ {
		for es := uint(0); es <= MaxES; es++ {
			out = append(out, MustFormat(n, es))
		}
	}
	return out
}

// TestDecodeTableExhaustive: table decode and LZC decode agree with the
// bit-serial reference on every pattern of every format up to the table
// ceiling (this covers all 2^n patterns — zero and NaR excluded, as
// decode contracts require).
func TestDecodeTableExhaustive(t *testing.T) {
	for _, f := range smallFormats(decTabMaxN) {
		nar := f.signBit()
		for bits := uint64(0); bits < f.Count(); bits++ {
			if bits == 0 || bits == nar {
				continue
			}
			p := f.FromBits(bits)
			ref := p.decodeRef()
			if got := p.decode(); got != ref {
				t.Fatalf("%s pattern %#x: table decode %+v != ref %+v", f, bits, got, ref)
			}
			if got := p.decodeLZC(); got != ref {
				t.Fatalf("%s pattern %#x: LZC decode %+v != ref %+v", f, bits, got, ref)
			}
		}
	}
}

// TestDecodeLZCExhaustiveMid: the LZC decoder alone, exhaustively for the
// widths just beyond the table ceiling (n = 13..16, all 2^n patterns).
func TestDecodeLZCExhaustiveMid(t *testing.T) {
	for n := uint(13); n <= 16; n++ {
		for _, es := range []uint{0, 2, 5} {
			f := MustFormat(n, es)
			nar := f.signBit()
			for bits := uint64(0); bits < f.Count(); bits++ {
				if bits == 0 || bits == nar {
					continue
				}
				p := f.FromBits(bits)
				if got, ref := p.decodeLZC(), p.decodeRef(); got != ref {
					t.Fatalf("%s pattern %#x: LZC %+v != ref %+v", f, bits, got, ref)
				}
			}
		}
	}
}

// TestDecodeLZCSampledWide: sampled agreement up to n = 32.
func TestDecodeLZCSampledWide(t *testing.T) {
	r := rng.New(0x7AB1E)
	for _, f := range largeFormats() {
		for i := 0; i < 20000; i++ {
			p := f.FromBits(r.Uint64() & f.Mask())
			if p.IsZero() || p.IsNaR() {
				continue
			}
			if got, ref := p.decodeLZC(), p.decodeRef(); got != ref {
				t.Fatalf("%s pattern %#x: LZC %+v != ref %+v", f, p.Bits(), got, ref)
			}
		}
	}
}

// TestOpTablesExhaustive: the Mul/Add result tables agree with the direct
// implementations over all 2^n × 2^n operand pairs for every n <= 8
// format — the acceptance bar for the tabled arithmetic (zero and NaR
// rows/columns included).
func TestOpTablesExhaustive(t *testing.T) {
	for _, f := range smallFormats(opTabMaxN) {
		count := f.Count()
		for a := uint64(0); a < count; a++ {
			pa := f.FromBits(a)
			for b := uint64(0); b < count; b++ {
				pb := f.FromBits(b)
				if got, ref := pa.Mul(pb), pa.mulRef(pb); got.Bits() != ref.Bits() {
					t.Fatalf("%s: %#x * %#x = %#x want %#x", f, a, b, got.Bits(), ref.Bits())
				}
				if got, ref := pa.Add(pb), pa.addRef(pb); got.Bits() != ref.Bits() {
					t.Fatalf("%s: %#x + %#x = %#x want %#x", f, a, b, got.Bits(), ref.Bits())
				}
			}
		}
	}
}

// TestEncodeDirectedVsRef: the shift-based encoder against the bit-serial
// writer over a DIRECTED sweep for every tabled format: all sf values
// across (and beyond) the saturation range × boundary significand shapes
// × both sticky values. This is the independent, non-circular encode
// coverage that the op-table and quire tests rely on — they all route
// through the fast encode, so a rounding edge here must be caught
// directly, not through them.
func TestEncodeDirectedVsRef(t *testing.T) {
	r := rng.New(0xD123C7)
	for _, f := range smallFormats(decTabMaxN) {
		lo, hi := 2*f.MinScale()-4, 2*f.MaxScale()+4
		for sf := lo; sf <= hi; sf++ {
			for _, sigW := range []uint{1, 2, 3, uint(f.N()) - 1, uint(f.N()), uint(f.N()) + 1, 2 * uint(f.N()), 40, 63} {
				hidden := uint64(1) << (sigW - 1)
				sigs := [4]uint64{
					hidden,                         // fraction all zeros (ties)
					hidden | (hidden - 1),          // fraction all ones (round-up cascades)
					hidden | 1,                     // sticky-like LSB
					hidden | r.Uint64()&(hidden-1), // random fill
				}
				for _, sig := range sigs {
					for _, sticky := range []bool{false, true} {
						got := f.encode(false, sf, sig, sigW, sticky)
						ref := f.encodeRef(false, sf, sig, sigW, sticky)
						if got.Bits() != ref.Bits() {
							t.Fatalf("%s encode(sf=%d sig=%#x sigW=%d sticky=%v) = %#x want %#x",
								f, sf, sig, sigW, sticky, got.Bits(), ref.Bits())
						}
						gotN := f.encode(true, sf, sig, sigW, sticky)
						refN := f.encodeRef(true, sf, sig, sigW, sticky)
						if gotN.Bits() != refN.Bits() {
							t.Fatalf("%s encode(neg sf=%d sig=%#x sigW=%d sticky=%v) = %#x want %#x",
								f, sf, sig, sigW, sticky, gotN.Bits(), refN.Bits())
						}
					}
				}
			}
		}
	}
}

// TestEncodeFastVsRef: the shift-based encoder against the bit-serial
// writer over a dense random sweep of (sign, sf, sig, sigW, sticky)
// tuples, for every small format and a spread of large ones.
func TestEncodeFastVsRef(t *testing.T) {
	fmts := append(smallFormats(12), largeFormats()...)
	r := rng.New(0xE2C0DE)
	for _, f := range fmts {
		// sf range well beyond saturation on both sides.
		lo, hi := 2*f.MinScale()-8, 2*f.MaxScale()+8
		for trial := 0; trial < 4000; trial++ {
			sigW := uint(1 + r.Intn(60))
			sig := uint64(1) << (sigW - 1)
			if sigW > 1 {
				sig |= r.Uint64() & (sig - 1)
			}
			sf := lo + r.Intn(hi-lo+1)
			sign := r.Intn(2) == 1
			sticky := r.Intn(2) == 1
			got := f.encode(sign, sf, sig, sigW, sticky)
			ref := f.encodeRef(sign, sf, sig, sigW, sticky)
			if got.Bits() != ref.Bits() {
				t.Fatalf("%s encode(sign=%v sf=%d sig=%#x sigW=%d sticky=%v) = %#x want %#x",
					f, sign, sf, sig, sigW, sticky, got.Bits(), ref.Bits())
			}
		}
	}
}

// TestDotProductFastVsGeneric: the table fast path of DotProduct against
// a plain MulAdd quire loop, including NaR and zero operands.
func TestDotProductFastVsGeneric(t *testing.T) {
	r := rng.New(0xD07)
	// posit(10,3) and posit(12,3) have decode tables but quires wider
	// than 256 bits: they must take the MulAdd path, not the
	// local-accumulator tiers (regression: the tier guard once admitted
	// a heap register and indexed its inline words at -1).
	for _, f := range []Format{MustFormat(8, 0), MustFormat(8, 1), MustFormat(8, 2), MustFormat(8, 3), MustFormat(5, 0), MustFormat(12, 2), MustFormat(10, 3), MustFormat(12, 3)} {
		for trial := 0; trial < 300; trial++ {
			k := 1 + r.Intn(96)
			w := make([]Posit, k)
			a := make([]Posit, k)
			for i := range w {
				w[i] = f.FromBits(r.Uint64() & f.Mask()) // NaR included
				a[i] = f.FromBits(r.Uint64() & f.Mask())
			}
			got := DotProduct(w, a)
			q := NewQuire(f, k)
			for i := range w {
				q.MulAdd(w[i], a[i])
			}
			if ref := q.Result(); got.Bits() != ref.Bits() {
				t.Fatalf("%s k=%d: DotProduct %#x != MulAdd loop %#x", f, k, got.Bits(), ref.Bits())
			}
		}
	}
}

// TestMatrixKernelsMatchReference: MulVec/Mul against per-element quire
// loops, over each route DotProduct takes — the table tier (8,1), a tabled
// format whose register is over 128 bits (12,2: 3 words), and an
// untabled format (16,1).
func TestMatrixKernelsMatchReference(t *testing.T) {
	for _, f := range []Format{MustFormat(8, 1), MustFormat(12, 2), MustFormat(16, 1)} {
		t.Run(f.String(), func(t *testing.T) { testMatrixKernels(t, f) })
	}
}

func testMatrixKernels(t *testing.T, f Format) {
	r := rng.New(0x3A7)
	for trial := 0; trial < 40; trial++ {
		rows, cols, cols2 := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		mk := func(rc int) []Posit {
			out := make([]Posit, rc)
			for i := range out {
				out[i] = f.FromBits(r.Uint64() & f.Mask())
			}
			return out
		}
		a := &Matrix{Rows: rows, Cols: cols, Data: mk(rows * cols)}
		x := Vector(mk(cols))
		y := a.MulVec(x)
		for i := 0; i < rows; i++ {
			q := NewQuire(f, cols)
			for kk := 0; kk < cols; kk++ {
				q.MulAdd(a.At(i, kk), x[kk])
			}
			if ref := q.Result(); y[i].Bits() != ref.Bits() {
				t.Fatalf("MulVec row %d: %#x want %#x", i, y[i].Bits(), ref.Bits())
			}
		}
		bm := &Matrix{Rows: cols, Cols: cols2, Data: mk(cols * cols2)}
		c := a.Mul(bm)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols2; j++ {
				q := NewQuire(f, cols)
				for kk := 0; kk < cols; kk++ {
					q.MulAdd(a.At(i, kk), bm.At(kk, j))
				}
				if ref := q.Result(); c.At(i, j).Bits() != ref.Bits() {
					t.Fatalf("Mul (%d,%d): %#x want %#x", i, j, c.At(i, j).Bits(), ref.Bits())
				}
			}
		}
	}
}

// TestWarmTablesAndMemory: WarmTables builds what TableMemoryBytes
// accounts for, and wide formats report zero.
func TestWarmTablesAndMemory(t *testing.T) {
	f := MustFormat(8, 1)
	WarmTables(f)
	if f.decTab() == nil || f.mulTab() == nil || f.addTab() == nil {
		t.Fatal("WarmTables did not build the tables")
	}
	if got := TableMemoryBytes(f); got != 4*256+2*65536 {
		t.Errorf("TableMemoryBytes(posit(8,1)) = %d", got)
	}
	wide := MustFormat(24, 1)
	WarmTables(wide) // must be a no-op, not a 2^48-entry build
	if wide.decTab() != nil || wide.mulTab() != nil {
		t.Fatal("wide format unexpectedly has tables")
	}
	if got := TableMemoryBytes(wide); got != 0 {
		t.Errorf("TableMemoryBytes(posit(24,1)) = %d", got)
	}
	mid := MustFormat(12, 2)
	WarmTables(mid)
	if got := TableMemoryBytes(mid); got != 4<<12 {
		t.Errorf("TableMemoryBytes(posit(12,2)) = %d", got)
	}
}

// TestQuireInlineMatchesWide: Result equals FromDyadic of the exact
// register value on a register stored inside the struct (posit(8,2): 103
// bits and up) and on one whose words live on the heap (posit(32,5): over
// 256 bits).
func TestQuireInlineMatchesWide(t *testing.T) {
	r := rng.New(0x91DE)
	f := MustFormat(8, 2)
	for trial := 0; trial < 100; trial++ {
		k := 1 + r.Intn(48)
		qi := NewQuire(f, k)
		for i := 0; i < k; i++ {
			a := f.FromBits(r.Uint64() & f.Mask())
			b := f.FromBits(r.Uint64() & f.Mask())
			if a.IsNaR() || b.IsNaR() {
				continue
			}
			qi.MulAdd(a, b)
		}
		// Round-trip through the big.Int view and back through a fresh
		// dyadic comparison: Result must equal FromDyadic of the exact
		// register value.
		want := f.FromDyadic(qi.Dyadic())
		if qi.Dyadic().IsZero() {
			want = f.Zero()
		}
		if got := qi.Result(); got.Bits() != want.Bits() {
			t.Fatalf("inline quire result %#x want %#x", got.Bits(), want.Bits())
		}
	}
	wf := MustFormat(32, 5)
	qw := NewQuire(wf, 4)
	if qw.Width() <= 256 {
		t.Fatalf("posit(32,5) quire is %d bits wide", qw.Width())
	}
	one := wf.One()
	qw.MulAdd(one, one)
	qw.MulAdd(one, one)
	if got := qw.Result(); got.Bits() != wf.FromFloat64(2).Bits() {
		t.Fatalf("wide quire 1*1+1*1 = %v", got)
	}
}

// TestMulVecDegenerateShapes: a zero-row matrix yields an empty vector
// (as before the pre-decoded rewrite), and zero columns keep the clear
// empty-dot-product panic.
func TestMulVecDegenerateShapes(t *testing.T) {
	f := MustFormat(8, 1)
	m := &Matrix{Rows: 0, Cols: 5, Data: nil}
	x := make(Vector, 5)
	for i := range x {
		x[i] = f.One()
	}
	if out := m.MulVec(x); len(out) != 0 {
		t.Fatalf("zero-row MulVec: expected empty vector, got %d elems", len(out))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero-column MulVec must panic")
		}
	}()
	(&Matrix{Rows: 2, Cols: 0, Data: nil}).MulVec(Vector{})
}
