package termtile

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bitutil"
	"repro/internal/rng"
)

// The tests drive the kernel with a toy format of their own, independent
// of both arms: 4-bit sign-magnitude patterns (bit 3 the sign, bits 0-2
// the magnitude) whose -0 pattern, 8, is special. The kernel tests run
// over hand-made tables whose Round, Neg and Bias hold arbitrary values,
// so only a kernel that indexes them exactly as documented reproduces the
// naive loop; the builder tests build the toy format's own tables.
const toySpecial = 8

func toyVal(p uint8) int64 {
	v := int64(p & 7)
	if p&8 != 0 {
		v = -v
	}
	return v
}

// toyFormat is the toy format as the builder reads it: a value v is the
// term v·2^scale, and the encoder truncates to an integer and saturates
// at 7. decodes, when set, counts Decode calls.
type toyFormat struct {
	scale   uint
	decodes *atomic.Int64
}

func (f toyFormat) Bits() uint      { return 4 }
func (f toyFormat) FracBits() int   { return int(f.scale) }
func (f toyFormat) Special() uint64 { return toySpecial }

func (f toyFormat) Decode(p uint64) Operand {
	if f.decodes != nil {
		f.decodes.Add(1)
	}
	return Operand{Sig: p & 7, Neg: p&8 != 0, Special: p == toySpecial}
}

func (f toyFormat) Negate(p uint64) uint64 {
	if p&7 == 0 {
		return p // zero, and the special
	}
	return p ^ 8
}

func (f toyFormat) Round(m uint64, lsb int) uint64 { return min(m>>uint(-lsb), 7) }

// TestTablesOfToyFormat builds the toy format's tables and checks every
// entry against toyVal: each term is its weight's value times its
// activation's, and each bias term its pattern's value, at the format's
// fraction depth; Act drops zeros and flags the special; Neg negates; and
// Round maps each positive integer sum to its saturated magnitude.
func TestTablesOfToyFormat(t *testing.T) {
	nonzero := func(p uint8) bool { return p&7 != 0 }
	for _, scale := range []uint{0, 5, 40} {
		tab := TablesOf(toyFormat{scale: scale})
		if tab.Special != toySpecial || len(tab.Terms) != 16<<8 {
			t.Fatalf("scale %d: special %#x, %d terms", scale, tab.Special, len(tab.Terms))
		}
		for w := range 16 {
			for a := range 256 {
				var want int64
				if a < 16 && nonzero(uint8(w)) && nonzero(uint8(a)) {
					want = toyVal(uint8(w)) * toyVal(uint8(a)) << scale
				}
				if got := tab.Terms[w<<8|a]; got != want {
					t.Fatalf("scale %d: Terms[%#x<<8|%#x] = %d, want %d", scale, w, a, got, want)
				}
			}
		}
		for p := range 256 {
			q := uint8(p & 15)
			act, bias := uint16(q), toyVal(q)<<scale
			switch {
			case q == toySpecial:
				act, bias = 1<<8, 0
			case !nonzero(q):
				act = 0
			}
			if tab.Act[p] != act || tab.Bias[p] != bias {
				t.Fatalf("scale %d: Act[%#x] = %#x, Bias = %d; want %#x, %d", scale, p, tab.Act[p], tab.Bias[p], act, bias)
			}
			if n := tab.Neg[p]; n > 15 || n == toySpecial != (q == toySpecial) || toyVal(n) != -toyVal(q) {
				t.Fatalf("scale %d: Neg[%#x] = %#x", scale, p, n)
			}
		}
		for v := uint64(1); v < 300; v++ {
			if got := tab.Round[bitutil.RoundKey(v<<scale)]; uint64(got) != min(v, 7) {
				t.Fatalf("scale %d: %d rounds to %d, want %d", scale, v, got, min(v, 7))
			}
		}
	}
}

// TestTablesOfConcurrentFirstUse starts one format's first use from 8
// goroutines at once: the format is built once, and every caller, then
// and later, gets the same tables.
func TestTablesOfConcurrentFirstUse(t *testing.T) {
	var decodes atomic.Int64
	f := toyFormat{scale: 3, decodes: &decodes}
	start := make(chan struct{})
	got := make([]*Tables, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = TablesOf(f)
		}()
	}
	close(start)
	wg.Wait()
	for i, tab := range got {
		if tab == nil || tab != got[0] {
			t.Fatalf("caller %d got tables %p, caller 0 %p", i, tab, got[0])
		}
	}
	if TablesOf(f) != got[0] {
		t.Fatal("a later call got other tables")
	}
	if n := decodes.Load(); n != 16 {
		t.Fatalf("the format decoded %d patterns, want 16: one build", n)
	}
}

// toyTables hand-makes tables for the toy format, its terms scaled by
// 2^scale. Round, Neg and Bias hold arbitrary values, and Bias differs
// between bytes with the same low four bits.
func toyTables(scale uint) *Tables {
	t := &Tables{Terms: make([]int64, 16<<8), Round: new([64 << 8]uint8), Special: 1<<40 | 5}
	for p := range t.Act {
		switch q := uint16(p) & 15; q {
		case 0:
		case toySpecial:
			t.Act[p] = 1 << 8
		default:
			t.Act[p] = q
		}
		t.Neg[p] = uint8(p*37 + 11)
		t.Bias[p] = (int64(p*29+7)%97 - 48) << scale
	}
	for w := range 16 {
		for a := range 16 {
			t.Terms[w<<8|a] = toyVal(uint8(w)) * toyVal(uint8(a)) << scale
		}
	}
	for key := range t.Round {
		t.Round[key] = uint8(key ^ key>>8)
	}
	return t
}

// naive is the per-sample definition: sum each row's bias term and exact
// products over the toy patterns (the low four bits of each weight and
// activation), wrap the sum in width bits, read the magnitude's rounding
// and negate a negative sum's pattern; a special operand makes the output
// t.Special.
func naive(t *Tables, scale uint, w [][]uint64, b []uint64, width uint, act []uint64, batch int) []uint64 {
	out, in := len(w), len(w[0])
	dst := make([]uint64, batch*out)
	mask := bitutil.Mask(width)
	for s := 0; s < batch; s++ {
		x := act[s*in : (s+1)*in]
		for j, row := range w {
			special, sum := b[j]&15 == toySpecial, t.Bias[uint8(b[j])]
			for i, a := range x {
				wp, ap := uint8(row[i]&15), uint8(a&15)
				special = special || wp == toySpecial || ap == toySpecial
				sum += toyVal(wp) * toyVal(ap) << scale
			}
			m := uint64(sum) & mask
			neg := m>>(width-1)&1 == 1
			if neg {
				m = -m & mask
			}
			var v uint64
			switch {
			case special:
				v = t.Special
			case m != 0:
				v = uint64(t.Round[bitutil.RoundKey(m)])
				if neg {
					v = uint64(t.Neg[v])
				}
			}
			dst[s*out+j] = v
		}
	}
	return dst
}

// randLayer draws a layer of toy weight and bias patterns with random
// bits above the toy width, a weight special once in 256 draws and a bias
// about once in 48.
func randLayer(r *rng.Source, in, out int) (w [][]uint64, b []uint64) {
	w = make([][]uint64, out)
	b = make([]uint64, out)
	for j := range w {
		w[j] = make([]uint64, in)
		for i := range w[j] {
			if w[j][i] = r.Uint64(); w[j][i]&15 == toySpecial && r.Uint64()%16 != 0 {
				w[j][i] &^= 15
			}
		}
		if b[j] = r.Uint64(); b[j]&15 == toySpecial && r.Uint64()%3 != 0 {
			b[j] ^= 1
		}
	}
	return w, b
}

// randFlush draws a flush of activations with random bits above the toy
// width, a special once in 128 draws; zero-heavy flushes draw a zero
// nine times in ten.
func randFlush(r *rng.Source, n int, zeroHeavy bool) []uint64 {
	act := make([]uint64, n)
	for i := range act {
		act[i] = r.Uint64()
		if a := act[i] & 15; a == toySpecial && r.Uint64()%8 != 0 || zeroHeavy && r.Uint64()%10 != 0 {
			act[i] &^= 15
		}
	}
	return act
}

// TestForwardMatchesNaive runs dense and zero-heavy flushes of sizes on
// both sides of the 16-sample compaction floor and the 256-sample tile
// through layers narrow and wide, with full-width and wrapping
// registers, against the naive loop.
func TestForwardMatchesNaive(t *testing.T) {
	r := rng.New(31)
	for _, cfg := range []struct {
		scale, width uint
	}{{0, 64}, {50, 64}, {4, 12}} {
		tab := toyTables(cfg.scale)
		for _, shape := range []struct{ in, out int }{{24, 5}, {40, 1}, {9, 32}} {
			w, bias := randLayer(r, shape.in, shape.out)
			k := newKernel(tab, w, bias, cfg.width)
			for _, b := range []int{1, 15, 16, 255, 256, 257, 513} {
				for _, zeroHeavy := range []bool{false, true} {
					act := randFlush(r, b*shape.in, zeroHeavy)
					dst := make([]uint64, b*shape.out)
					Forward(k, act, dst, b)
					want := naive(tab, cfg.scale, w, bias, cfg.width, act, b)
					for n := range dst {
						if dst[n] != want[n] {
							t.Fatalf("scale %d width %d %dx%d b=%d zero-heavy=%v: output %d (sample %d row %d) = %#x, want %#x",
								cfg.scale, cfg.width, shape.out, shape.in, b, zeroHeavy, n, n/shape.out, n%shape.out, dst[n], want[n])
						}
					}
				}
			}
		}
	}
}

// TestCompactThreshold puts one column either side of the 3/8 + 1/out
// zero share. At out = 1 the share exceeds 1, so even an all-zero column
// stays dense; otherwise an all-zero column compacts to an empty list.
func TestCompactThreshold(t *testing.T) {
	const ts = tileSize
	for _, out := range []int{1, 2, 32} {
		// The least zero count z with 8·z·out >= ts·(3·out+8).
		zMin := (ts*(3*out+8) + 8*out - 1) / (8 * out)
		for _, z := range []int{zMin - 1, zMin, ts} {
			if z > ts {
				continue
			}
			t.Run(fmt.Sprintf("out%d/zeros%d", out, z), func(t *testing.T) {
				// Column 1 holds z zeros spread over the tile; column 0 is
				// dense.
				actT := make([]uint8, 2*ts)
				var want []uint16
				for s := 0; s < ts; s++ {
					actT[s] = uint8(1 + s%15)
					if s*z/ts == (s+1)*z/ts { // one of the ts−z nonzeros
						a := uint8(1 + s%15)
						actT[ts+s] = a
						want = append(want, uint16(s)|uint16(a)<<8)
					}
				}
				if ts-len(want) != z {
					t.Fatalf("column built with %d zeros, want %d", ts-len(want), z)
				}
				lists, spans := make([]uint16, 2*ts), make([]int32, 4)
				sparse := compact(actT, lists, spans, ts, out)
				if spans[1] >= 0 {
					t.Fatal("the dense column was compacted")
				}
				if z < zMin {
					if sparse || spans[3] >= 0 {
						t.Fatalf("%d zeros, below the threshold of %d, compacted", z, zMin)
					}
					return
				}
				if !sparse || spans[3] < 0 {
					t.Fatalf("%d zeros, at or above the threshold of %d, stayed dense", z, zMin)
				}
				got := lists[spans[2]:spans[3]]
				if len(got) != len(want) {
					t.Fatalf("list holds %d entries, want %d", len(got), len(want))
				}
				for n := range got {
					if got[n] != want[n] {
						t.Fatalf("entry %d = %#x, want %#x", n, got[n], want[n])
					}
				}
			})
		}
	}
	// Tiles under minCompact samples stay dense, however many zeros.
	actT := make([]uint8, minCompact-1)
	if compact(actT, make([]uint16, len(actT)), make([]int32, 2), len(actT), 32) {
		t.Fatal("a tile under minCompact samples was compacted")
	}
}

// TestSpecialsPoisonTheirSampleOrRow places a special activation in one
// sample, a special weight in one row and a special bias in another:
// exactly those samples and rows yield t.Special.
func TestSpecialsPoisonTheirSampleOrRow(t *testing.T) {
	tab := toyTables(0)
	const in, out, b = 6, 4, 40
	w := make([][]uint64, out)
	for j := range w {
		w[j] = []uint64{1, 2, 3, 9, 10, 11}
	}
	w[1][4] = toySpecial
	bias := make([]uint64, out)
	bias[2] = toySpecial
	act := make([]uint64, b*in)
	for n := range act {
		act[n] = uint64(1 + n%7)
	}
	act[17*in+3] = toySpecial | 0x30 // bits above the toy width are ignored
	dst := make([]uint64, b*out)
	Forward(newKernel(tab, w, bias, 64), act, dst, b)
	for s := 0; s < b; s++ {
		for j := 0; j < out; j++ {
			if poisoned := s == 17 || j == 1 || j == 2; (dst[s*out+j] == tab.Special) != poisoned {
				t.Fatalf("sample %d row %d = %#x, poisoned %v", s, j, dst[s*out+j], poisoned)
			}
		}
	}
}

// TestNegativeAndWrappedSums checks a single product's rounding: a
// negative sum's pattern goes through Neg, and a sum past the register
// width wraps before it rounds. Each case's bias term is Bias[0x30], a
// zero pattern's byte.
func TestNegativeAndWrappedSums(t *testing.T) {
	tab := toyTables(0)
	round := func(m uint64) uint64 { return uint64(tab.Round[bitutil.RoundKey(m)]) }
	for _, tc := range []struct {
		w, a  uint8
		bias  int64
		width uint
		want  uint64
	}{
		{3, 5, 0, 64, round(15)},
		{3, 13, 0, 64, uint64(tab.Neg[round(15)])}, // 3 · −5
		{3, 13, 15, 64, 0},                         // cancels exactly
		{0, 0, 200, 8, uint64(tab.Neg[round(56)])}, // 200 wraps to −56
		{0, 0, 256 + 9, 8, round(9)},               // 265 wraps to 9
		{7, 7, -100, 64, uint64(tab.Neg[round(51)])},
		{7, 7, 1<<62 - 49, 63, uint64(tab.Neg[round(1<<62)])}, // the most negative 63-bit sum
	} {
		dst := make([]uint64, 1)
		tab.Bias[0x30] = tc.bias
		k := newKernel(tab, [][]uint64{{uint64(tc.w)}}, []uint64{0x30}, tc.width)
		Forward(k, []uint64{uint64(tc.a)}, dst, 1)
		if dst[0] != tc.want {
			t.Errorf("%d·%d + %d in %d bits = %#x, want %#x", toyVal(tc.w), toyVal(tc.a), tc.bias, tc.width, dst[0], tc.want)
		}
	}
}

// TestWarmForwardAllocatesNothing: once its scratch has grown to a flush
// size, a kernel serves that size and smaller ones from it.
func TestWarmForwardAllocatesNothing(t *testing.T) {
	r := rng.New(37)
	tab := toyTables(0)
	w, bias := randLayer(r, 30, 16)
	k := newKernel(tab, w, bias, 64)
	for _, zeroHeavy := range []bool{false, true} {
		const b = 300
		act, dst := randFlush(r, b*30, zeroHeavy), make([]uint64, b*16)
		Forward(k, act, dst, b)
		if n := testing.AllocsPerRun(5, func() {
			Forward(k, act, dst, b)
			Forward(k, act[:30], dst[:16], 1)
		}); n != 0 {
			t.Fatalf("zero-heavy=%v: warm Forward allocates %v times", zeroHeavy, n)
		}
	}
}
