package bitutil

import (
	"testing"
	"testing/quick"
)

func TestClog2(t *testing.T) {
	cases := []struct {
		in   uint64
		want uint
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{16, 4}, {17, 5}, {1 << 20, 20}, {(1 << 20) + 1, 21},
	}
	for _, c := range cases {
		if got := Clog2(c.in); got != c.want {
			t.Errorf("Clog2(%d) = %d want %d", c.in, got, c.want)
		}
	}
}

func TestMask(t *testing.T) {
	if Mask(0) != 0 {
		t.Error("Mask(0)")
	}
	if Mask(1) != 1 {
		t.Error("Mask(1)")
	}
	if Mask(8) != 0xFF {
		t.Error("Mask(8)")
	}
	if Mask(64) != ^uint64(0) {
		t.Error("Mask(64)")
	}
	if Mask(65) != ^uint64(0) {
		t.Error("Mask(65) should clamp")
	}
}

func TestLeadingZeros(t *testing.T) {
	if got := LeadingZeros(0, 8); got != 8 {
		t.Errorf("LZ(0,8) = %d", got)
	}
	if got := LeadingZeros(1, 8); got != 7 {
		t.Errorf("LZ(1,8) = %d", got)
	}
	if got := LeadingZeros(0x80, 8); got != 0 {
		t.Errorf("LZ(0x80,8) = %d", got)
	}
	if got := LeadingZeros(0xFF00, 8); got != 8 {
		t.Errorf("LZ(0xFF00,8) = %d (high bits must be masked)", got)
	}
}

func TestSignExtend(t *testing.T) {
	if got := SignExtend(0xFF, 8); got != -1 {
		t.Errorf("SignExtend(0xFF,8) = %d", got)
	}
	if got := SignExtend(0x7F, 8); got != 127 {
		t.Errorf("SignExtend(0x7F,8) = %d", got)
	}
	if got := SignExtend(0x80, 8); got != -128 {
		t.Errorf("SignExtend(0x80,8) = %d", got)
	}
	if got := SignExtend(^uint64(0), 64); got != -1 {
		t.Errorf("SignExtend(all,64) = %d", got)
	}
}

func TestTwosComplement(t *testing.T) {
	if got := TwosComplement(1, 8); got != 0xFF {
		t.Errorf("TC(1,8) = %x", got)
	}
	if got := TwosComplement(0, 8); got != 0 {
		t.Errorf("TC(0,8) = %x", got)
	}
	if got := TwosComplement(0x80, 8); got != 0x80 {
		t.Errorf("TC(0x80,8) = %x (NaR is self-complement)", got)
	}
}

func TestPropTwosComplementInvolution(t *testing.T) {
	prop := func(x uint16) bool {
		v := uint64(x)
		return TwosComplement(TwosComplement(v, 16), 16) == v&Mask(16)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestShiftRightSticky(t *testing.T) {
	v, s := ShiftRightSticky(0b1011, 2)
	if v != 0b10 || !s {
		t.Errorf("got %b sticky=%v", v, s)
	}
	v, s = ShiftRightSticky(0b1000, 3)
	if v != 1 || s {
		t.Errorf("exact shift: got %b sticky=%v", v, s)
	}
	v, s = ShiftRightSticky(5, 100)
	if v != 0 || !s {
		t.Errorf("overshift: got %b sticky=%v", v, s)
	}
	v, s = ShiftRightSticky(0, 100)
	if v != 0 || s {
		t.Errorf("zero overshift: got %b sticky=%v", v, s)
	}
	v, s = ShiftRightSticky(7, 0)
	if v != 7 || s {
		t.Errorf("no-op shift: got %b sticky=%v", v, s)
	}
}

func TestRoundNearestEven(t *testing.T) {
	// (q, guard, sticky) -> expected
	cases := []struct {
		q             uint64
		guard, sticky bool
		want          uint64
	}{
		{4, false, false, 4},
		{4, false, true, 4},
		{4, true, false, 4}, // tie, even stays
		{5, true, false, 6}, // tie, odd rounds up
		{4, true, true, 5},  // above half
		{5, true, true, 6},
	}
	for _, c := range cases {
		if got := RoundNearestEven(c.q, c.guard, c.sticky); got != c.want {
			t.Errorf("RNE(%d,%v,%v) = %d want %d", c.q, c.guard, c.sticky, got, c.want)
		}
	}
}

func TestAbsInt(t *testing.T) {
	if m, n := AbsInt(-5); m != 5 || !n {
		t.Error("AbsInt(-5)")
	}
	if m, n := AbsInt(5); m != 5 || n {
		t.Error("AbsInt(5)")
	}
	if m, n := AbsInt(-9223372036854775808); m != 1<<63 || !n {
		t.Error("AbsInt(MinInt64)")
	}
}

func TestWriterBasic(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0b1011, 4)
	pat, g, s := w.Finish()
	if pat != 0b1011 || g || s {
		t.Errorf("got %b %v %v", pat, g, s)
	}
}

func TestWriterGuardSticky(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0b101101, 6) // 4 pattern + guard(0) + sticky(1)
	pat, g, s := w.Finish()
	if pat != 0b1011 || g || !s {
		t.Errorf("got %b guard=%v sticky=%v", pat, g, s)
	}
	w = NewWriter(4)
	w.WriteBits(0b10111, 5) // guard = 1, no sticky
	pat, g, s = w.Finish()
	if pat != 0b1011 || !g || s {
		t.Errorf("got %b guard=%v sticky=%v", pat, g, s)
	}
}

func TestWriterPadding(t *testing.T) {
	w := NewWriter(6)
	w.WriteBits(0b11, 2)
	pat, g, s := w.Finish()
	if pat != 0b110000 || g || s {
		t.Errorf("padding: got %b %v %v", pat, g, s)
	}
}

func TestWriterRuns(t *testing.T) {
	w := NewWriter(5)
	w.WriteRun(1, 3)
	w.WriteRun(0, 2)
	w.WriteRun(1, 10) // 5 pattern bits used; guard takes 1; rest sticky
	pat, g, s := w.Finish()
	if pat != 0b11100 || !g || !s {
		t.Errorf("runs: got %05b guard=%v sticky=%v", pat, g, s)
	}
}

func TestWriterRound(t *testing.T) {
	// 0b0111 + guard=1 + sticky -> rounds to 0b1000
	w := NewWriter(4)
	w.WriteBits(0b01111, 5)
	w.StickyOr(true)
	if got := w.Round(); got != 0b1000 {
		t.Errorf("Round = %b", got)
	}
	// tie to even: 0b0101 + guard, no sticky -> 0b0110
	w = NewWriter(4)
	w.WriteBits(0b01011, 5)
	if got := w.Round(); got != 0b0110 {
		t.Errorf("tie round = %b", got)
	}
	// overflow: 0b1111 + guard -> 0b10000 (caller clamps)
	w = NewWriter(4)
	w.WriteBits(0b11111, 5)
	w.StickyOr(true)
	if got := w.Round(); got != 0b10000 {
		t.Errorf("overflow round = %b", got)
	}
}

func TestWriterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("width 64 must panic")
		}
	}()
	NewWriter(64)
}

// TestZeroBytes checks the word-at-a-time count against a byte loop on
// every single-byte value and on random slices of every length mod 8.
func TestZeroBytes(t *testing.T) {
	for v := 0; v < 256; v++ {
		b := []byte{1, 2, 3, byte(v), 5, 6, 7, 8, byte(v)}
		want := 0
		if v == 0 {
			want = 2
		}
		if got := ZeroBytes(b); got != want {
			t.Fatalf("byte %#x: %d zero bytes, want %d", v, got, want)
		}
	}
	f := func(b []byte) bool {
		for i := range b {
			b[i] &= 0x81 // about a quarter zero, with the top bit exercised
		}
		want := 0
		for _, c := range b {
			if c == 0 {
				want++
			}
		}
		return ZeroBytes(b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundKey checks that RoundKey keeps a magnitude's length, its
// seven bits below the leading one and its stickiness, and that
// RoundKeyValue inverts it on every key a magnitude can have.
func TestRoundKey(t *testing.T) {
	for key := 0; key < 64<<8; key++ {
		l := key>>8 + 1
		if l <= 8 && (key&1 != 0 || key>>1&0x7F&int(Mask(uint(8-l))) != 0) {
			continue // no magnitude of length l has this key
		}
		if got := RoundKey(RoundKeyValue(key)); got != key {
			t.Fatalf("key %#x: RoundKey(RoundKeyValue) = %#x", key, got)
		}
	}
	f := func(m uint64, drop uint8) bool {
		m >>= drop % 64
		if m == 0 {
			return true
		}
		l := Len(m)
		v := RoundKeyValue(RoundKey(m))
		if Len(v) != l {
			return false
		}
		if l <= 8 {
			return v == m
		}
		return v>>(l-8) == m>>(l-8) && (v&Mask(l-8) != 0) == (m&Mask(l-8) != 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}
