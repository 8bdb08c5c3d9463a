package wide

import (
	"math/big"
	"testing"

	"repro/internal/rng"
)

func big64(v int64) *big.Int { return big.NewInt(v) }

// boundaryWidths straddle the one-word, inline and heap boundaries.
var boundaryWidths = []uint{1, 63, 64, 65, 127, 128, 129, 255, 256, 257, 500}

// setBig sets x to v mod 2^width (two's-complement wrap).
func setBig(x *Int, v *big.Int) *Int {
	mod := new(big.Int).Lsh(big64(1), x.width)
	m := new(big.Int).Mod(v, mod)
	w := x.words()
	clear(w)
	for i, bw := range m.Bits() { // big.Word is 64-bit on the platforms this runs on
		w[i] = uint64(bw)
	}
	return x
}

// setBit sets bit i of x.
func setBit(x *Int, i uint) { x.words()[i/64] |= 1 << (i % 64) }

// signed is v mod 2^width as a two's-complement value.
func signed(v *big.Int, width uint) *big.Int {
	mod := new(big.Int).Lsh(big64(1), width)
	s := new(big.Int).Mod(v, mod)
	if s.Bit(int(width)-1) == 1 {
		s.Sub(s, mod)
	}
	return s
}

// readoutOracle is Readout computed on the big.Int value.
func readoutOracle(v *big.Int) (neg bool, l uint, sig uint64, sticky bool) {
	mag := new(big.Int).Abs(v)
	l = uint(mag.BitLen())
	lo := l - min(l, 64)
	sig = new(big.Int).Rsh(mag, lo).Uint64()
	sticky = lo > 0 && mag.TrailingZeroBits() < lo
	return v.Sign() < 0, l, sig, sticky
}

func checkReadout(t *testing.T, x *Int, what string) {
	t.Helper()
	v := x.Big()
	neg, l, sig, sticky := x.Readout()
	wn, wl, ws, wst := readoutOracle(v)
	if neg != wn || l != wl || sig != ws || sticky != wst {
		t.Fatalf("width %d %s (%v): Readout = (%v, %d, %#x, %v), want (%v, %d, %#x, %v)",
			x.Width(), what, v, neg, l, sig, sticky, wn, wl, ws, wst)
	}
}

func TestNewAndZero(t *testing.T) {
	for _, w := range boundaryWidths {
		x := Make(w)
		if x.Width() != w || x.Big().Sign() != 0 || x.sign() {
			t.Errorf("Make(%d): width=%d value=%v negative=%v", w, x.Width(), x.Big(), x.sign())
		}
		if heap := w > 64*inlineWords; (x.heap != nil) != heap {
			t.Errorf("Make(%d): heap words %v, want %v", w, x.heap != nil, heap)
		}
		checkReadout(t, &x, "zero")
	}
}

func TestNewPanicsOnZeroWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Make(0) must panic")
		}
	}()
	Make(0)
}

// TestSetInt64RoundTrip: a sign-extended int64 set through SetInt128
// reads back through Big, wrapped to the width.
func TestSetInt64RoundTrip(t *testing.T) {
	for _, w := range append([]uint{7, 33}, boundaryWidths...) {
		for _, v := range []int64{0, 1, -1, 42, -42, 1 << 40, -(1 << 40), -1 << 63} {
			x := Make(w)
			x.SetInt128(uint64(v), uint64(v>>63))
			if want := signed(big64(v), w); x.Big().Cmp(want) != 0 {
				t.Errorf("w=%d v=%d: got %v want %v", w, v, x.Big(), want)
			}
			checkReadout(t, &x, "SetInt128")
		}
	}
}

// TestWrapNarrow: every operation wraps modulo 2^width, at the one-word,
// inline and heap boundaries alike.
func TestWrapNarrow(t *testing.T) {
	x := Make(4)
	x.AddUint64Shifted(7, 0)
	x.AddUint64Shifted(1, 0)
	if got := x.Big(); got.Int64() != -8 {
		t.Errorf("4-bit 7+1 = %v want -8 (wrap)", got)
	}
	for _, w := range boundaryWidths {
		// The most positive value plus one is the most negative; minus
		// one more wraps back to the most positive; 2^width vanishes.
		x := Make(w)
		top := new(big.Int).Lsh(big64(1), w-1)
		setBig(&x, new(big.Int).Sub(top, big64(1)))
		x.AddUint64Shifted(1, 0)
		if want := new(big.Int).Neg(top); x.Big().Cmp(want) != 0 {
			t.Fatalf("w=%d: max+1 = %v want %v", w, x.Big(), want)
		}
		checkReadout(t, &x, "most negative")
		x.SubUint64Shifted(1, 0)
		if want := new(big.Int).Sub(top, big64(1)); x.Big().Cmp(want) != 0 {
			t.Fatalf("w=%d: min-1 = %v want %v", w, x.Big(), want)
		}
		before := x.Big()
		x.AddUint64Shifted(1, w) // entirely above the register
		x.SubUint64Shifted(3, w)
		x.AddUint64Shifted(1<<63|1, w-1) // only bit w-1 lands
		if want := signed(new(big.Int).Add(before, top), w); x.Big().Cmp(want) != 0 {
			t.Fatalf("w=%d: bits above the top must drop: %v want %v", w, x.Big(), want)
		}
	}
	x = Make(100)
	x.SetInt128(0, 1<<63) // -2^127 wraps to 0 in 100 bits
	if x.Big().Sign() != 0 {
		t.Errorf("SetInt128 must wrap to the width: %v", x.Big())
	}
}

func TestAddUint64Shifted(t *testing.T) {
	r := rng.New(3)
	for i := 0; i < 300; i++ {
		width := uint(1 + r.Intn(400))
		if i < len(boundaryWidths) {
			width = boundaryWidths[i]
		}
		x := Make(width)
		ref := new(big.Int)
		for j := 0; j < 10; j++ {
			v := r.Uint64()
			s := uint(r.Intn(int(width) + 64))
			if r.Intn(2) == 0 {
				x.AddUint64Shifted(v, s)
				ref.Add(ref, new(big.Int).Lsh(new(big.Int).SetUint64(v), s))
			} else {
				x.SubUint64Shifted(v, s)
				ref.Sub(ref, new(big.Int).Lsh(new(big.Int).SetUint64(v), s))
			}
		}
		if want := signed(ref, width); x.Big().Cmp(want) != 0 {
			t.Fatalf("shifted add/sub mismatch at width %d: %v want %v", width, x.Big(), want)
		}
		checkReadout(t, &x, "accumulated")
	}
}

// TestLenLeadingZeros: Readout's bit length is the position of the
// leading one of |x|, the quire LZD of Algorithm 2 line 17.
func TestLenLeadingZeros(t *testing.T) {
	x := Make(100)
	if _, l, _, _ := x.Readout(); l != 0 {
		t.Errorf("zero Len = %d", l)
	}
	setBit(&x, 70)
	if _, l, _, _ := x.Readout(); l != 71 {
		t.Errorf("Len = %d want 71", l)
	}
}

func TestExtractAnyBelow(t *testing.T) {
	x := Make(128)
	x.AddUint64Shifted(0b1011, 62) // straddles the word boundary
	if got := x.Extract(62, 4); got != 0b1011 {
		t.Errorf("Extract = %b", got)
	}
	if got := x.Extract(120, 64); got != 0 {
		t.Errorf("Extract past top = %b", got)
	}
	if got := x.Extract(0, 64); got != 0b11<<62 {
		t.Errorf("Extract(0, 64) = %#x", got)
	}
	if got := x.Extract(63, 0); got != 0 {
		t.Errorf("Extract(63, 0) = %#x", got)
	}
	// The readout's sticky bit: set only when a bit below the top 64
	// significant ones is.
	y := Make(200)
	y.AddUint64Shifted(1, 150) // l = 151: sig covers bits 87..150
	if _, _, _, sticky := y.Readout(); sticky {
		t.Error("a lone leading one has no sticky bit")
	}
	y.AddUint64Shifted(1, 87) // lowest bit inside sig
	if _, _, _, sticky := y.Readout(); sticky {
		t.Error("bit 87 is inside the significand")
	}
	y.AddUint64Shifted(1, 3) // below it
	checkReadout(t, &y, "sticky")
	if _, _, _, sticky := y.Readout(); !sticky {
		t.Error("bit 3 must set the sticky bit")
	}
	r := rng.New(5)
	for i := 0; i < 200; i++ {
		w := uint(1 + r.Intn(300))
		x, ref := Make(w), new(big.Int)
		for j := 0; j < 3; j++ {
			s := uint(r.Intn(int(w)))
			v := r.Uint64()
			x.AddUint64Shifted(v, s)
			ref.Add(ref, new(big.Int).Lsh(new(big.Int).SetUint64(v), s))
		}
		ref.Mod(ref, new(big.Int).Lsh(big64(1), w))
		lo, count := uint(r.Intn(int(w)+70)), uint(r.Intn(65))
		want := new(big.Int).Rsh(ref, lo)
		want.And(want, new(big.Int).Sub(new(big.Int).Lsh(big64(1), count), big64(1)))
		if got := x.Extract(lo, count); got != want.Uint64() {
			t.Fatalf("w=%d Extract(%d, %d) = %#x want %#x", w, lo, count, got, want.Uint64())
		}
	}
}

// TestReadoutBoundaries: the readout on 0, ±1, the most negative value,
// ±2^(width−2), a value whose only bit below the top 64 is the sticky
// bit (both signs), and random values, at every boundary width.
func TestReadoutBoundaries(t *testing.T) {
	r := rng.New(7)
	for _, w := range boundaryWidths {
		cases := map[string]*big.Int{
			"0":             big64(0),
			"+1":            big64(1),
			"-1":            big64(-1),
			"most negative": new(big.Int).Neg(new(big.Int).Lsh(big64(1), w-1)),
		}
		if w >= 2 {
			cases["+2^(w-2)"] = new(big.Int).Lsh(big64(1), w-2)
			cases["-2^(w-2)"] = new(big.Int).Neg(cases["+2^(w-2)"])
		}
		if w >= 67 {
			// The top 64 bits of |x| are ones at bits w-66..w-3; below
			// them only bit 0 is set: the sticky bit.
			v := new(big.Int).Lsh(new(big.Int).SetUint64(^uint64(0)), w-66)
			v.Or(v, big64(1))
			cases["sticky only"] = v
			cases["-sticky only"] = new(big.Int).Neg(v)
		}
		for name, v := range cases {
			x := Make(w)
			setBig(&x, v)
			if got := x.Big(); got.Cmp(signed(v, w)) != 0 {
				t.Fatalf("w=%d %s: Big %v want %v", w, name, got, signed(v, w))
			}
			checkReadout(t, &x, name)
		}
		for i := 0; i < 50; i++ {
			x := Make(w)
			v := new(big.Int)
			for j := uint(0); j < w; j += 64 {
				v.Lsh(v, 64)
				v.Or(v, new(big.Int).SetUint64(r.Uint64()))
			}
			v.Rsh(v, uint(r.Intn(int(w)+1)))
			if r.Intn(2) == 1 {
				v.Neg(v)
			}
			setBig(&x, v)
			checkReadout(t, &x, "random")
		}
	}
}

// TestReadoutAllocs: the readout reads the words in place, inline or on
// the heap.
func TestReadoutAllocs(t *testing.T) {
	for _, w := range []uint{64, 256, 257, 500} {
		x := Make(w)
		x.SubUint64Shifted(12345, w/2)
		if n := testing.AllocsPerRun(10, func() { x.Readout() }); n != 0 {
			t.Errorf("width %d: Readout allocates %v times", w, n)
		}
	}
}

func TestBitSetBit(t *testing.T) {
	x := Make(130)
	setBit(&x, 129)
	if !x.sign() || x.Extract(129, 1) != 1 {
		t.Error("setting the top bit must make the value negative")
	}
	x.AddUint64Shifted(1, 129)
	if x.Big().Sign() != 0 {
		t.Error("adding the top bit again must wrap to zero")
	}
}

func TestBigSetBigRoundTrip(t *testing.T) {
	r := rng.New(4)
	for i := 0; i < 200; i++ {
		a := randBig(r, 250)
		x := Make(260)
		if setBig(&x, a).Big().Cmp(a) != 0 {
			t.Fatalf("setBig/Big roundtrip: %v -> %v", a, x.Big())
		}
	}
}

func randBig(r *rng.Source, maxBits uint) *big.Int {
	out := new(big.Int)
	words := int(maxBits/64) + 1
	for i := 0; i < words; i++ {
		out.Lsh(out, 64)
		out.Or(out, new(big.Int).SetUint64(r.Uint64()))
	}
	out.Rsh(out, uint(r.Intn(int(maxBits))))
	if r.Intn(2) == 1 {
		out.Neg(out)
	}
	return out
}

func TestHexString(t *testing.T) {
	x := Make(65)
	x.SubUint64Shifted(1, 0)
	if got := x.HexString(); got != "0x0000000000000001ffffffffffffffff" {
		t.Errorf("HexString = %s", got)
	}
}
