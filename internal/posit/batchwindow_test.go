package posit

// Window-tier tests: BatchDenseKernel layers whose eq.-(4) register is
// wider than one word or whose format is too wide for term tables must
// match per-row quires bit for bit, through the exact int64 window and
// the two-word fallback alike, NaR included.

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// valueGen draws one operand pattern of format f.
type valueGen struct {
	name string
	draw func(f Format, r *rng.Source) Posit
}

// windowGens are the operand shapes under test: the full code space
// (zero, NaR and extreme scales included, which mostly forces the
// two-word fallback), quantised normals, ReLU outputs and one-hot
// inputs (narrow scale ranges, the int64 window).
var windowGens = []valueGen{
	{"random", func(f Format, r *rng.Source) Posit { return f.FromBits(r.Uint64() & f.Mask()) }},
	{"normal", func(f Format, r *rng.Source) Posit { return f.FromFloat64(r.NormMS(0, 1)) }},
	{"relu", func(f Format, r *rng.Source) Posit { return f.FromFloat64(math.Max(0, r.NormMS(0, 1))) }},
	{"onehot", func(f Format, r *rng.Source) Posit { return f.FromFloat64(float64(r.Intn(2))) }},
}

// checkBatchAgainstQuire runs one flush through the batch kernel and
// per-row quires and fails on the first differing output.
func checkBatchAgainstQuire(t *testing.T, label string, f Format, w [][]Posit, b []Posit, act []uint64, batch int) {
	t.Helper()
	pw, pb := patterns(w, b)
	bk, ok := NewBatchDenseKernel(f, pw, pb)
	if !ok {
		t.Fatalf("%s: no batch kernel for %v in=%d", label, f, len(w[0]))
	}
	in, out := len(w[0]), len(w)
	got := make([]uint64, batch*out)
	ForwardBatch(bk, act, got, batch)
	want := quireForward(f, w, b, act[:batch*in])
	for i, wbits := range want {
		if got[i] != wbits {
			t.Fatalf("%s %v in=%d out=%d b=%d: sample %d row %d: batch %#x, quire %#x",
				label, f, in, out, batch, i/out, i%out, got[i], wbits)
		}
	}
}

// TestBatchDenseKernelWindowMatchesPerSample covers every posit(n, es)
// with 9 <= n <= 16 and es <= 2 whose register fits 128 bits, plus
// posit(8,2) at the Mushroom fan-in of 117, with flush sizes on both
// sides of the tile edge.
func TestBatchDenseKernelWindowMatchesPerSample(t *testing.T) {
	r := rng.New(41)
	type layerCase struct {
		f   Format
		ins []int
	}
	var cases []layerCase
	for n := uint(9); n <= 16; n++ {
		for es := uint(0); es <= 2; es++ {
			f := MustFormat(n, es)
			if QuireSize(f, 1) > 128 {
				continue
			}
			cases = append(cases, layerCase{f, []int{1, 3, 30}})
		}
	}
	cases = append(cases, layerCase{MustFormat(8, 2), []int{117}})
	for _, c := range cases {
		for _, in := range c.ins {
			if QuireSize(c.f, in) > 128 {
				continue
			}
			for _, wg := range windowGens[:3] {
				for _, ag := range windowGens {
					out := 1 + r.Intn(6)
					w := make([][]Posit, out)
					for j := range w {
						w[j] = make([]Posit, in)
						for i := range w[j] {
							w[j][i] = wg.draw(c.f, r)
						}
					}
					b := make([]Posit, out)
					for j := range b {
						b[j] = wg.draw(c.f, r)
					}
					for _, batch := range []int{1, 64, 77} {
						act := make([]uint64, batch*in)
						for i := range act {
							act[i] = ag.draw(c.f, r).bits
						}
						checkBatchAgainstQuire(t, wg.name+"×"+ag.name, c.f, w, b, act, batch)
					}
				}
			}
		}
	}
}

// TestBatchDenseKernelWindowExhaustive16 sweeps all 2^16 posit(16,1)
// activation patterns through 1×1 layers whose weight is zero, NaR,
// ±minpos, ±maxpos, ±1 or random, under a zero, a real and a NaR bias.
func TestBatchDenseKernelWindowExhaustive16(t *testing.T) {
	f := MustFormat(16, 1)
	// The 2022 standard's extremes are maxpos = 2^(4n−8) and minpos =
	// 2^(−4n+8) at es = 2; in general they are 2^(±2^es·(n−2)).
	scale := (1 << f.es) * (int(f.n) - 2)
	maxpos, minpos := f.FromFloat64(math.Ldexp(1, scale)), f.FromFloat64(math.Ldexp(1, -scale))
	if maxpos != f.MaxPos() || minpos != f.MinPos() {
		t.Fatalf("extremes: 2^%d -> %#x, 2^-%d -> %#x; want %#x, %#x",
			scale, maxpos.bits, scale, minpos.bits, f.MaxPos().bits, f.MinPos().bits)
	}
	r := rng.New(5)
	weights := []Posit{
		f.Zero(), f.NaR(), minpos, minpos.Neg(), maxpos, maxpos.Neg(),
		f.One(), f.One().Neg(), f.FromBits(r.Uint64() & f.Mask()),
	}
	act := make([]uint64, f.Count())
	for i := range act {
		act[i] = uint64(i)
	}
	for _, bias := range []Posit{f.Zero(), f.FromFloat64(-0.3125), f.NaR()} {
		for _, wv := range weights {
			checkBatchAgainstQuire(t, "exhaustive", f, [][]Posit{{wv}}, []Posit{bias}, act, len(act))
		}
	}
}

// TestBatchDenseKernelWindowSplitFlush runs one posit(16,1) flush whose
// first tile fits the int64 window and whose second does not. Tile 0
// holds activations in [1/2, 2), so with weights in the same range the
// window is a few scale steps wide and, with its 31-bit headroom (two
// 13-bit significands, 4 carry bits for in = 8, a sign), fits one word.
// Tile 1 mixes maxpos and minpos activations, whose scales alone lie 56
// bits apart, so its terms cannot share one word and the row-tile takes
// the two-word register; a sample holding both exercises the sticky
// rounding.
func TestBatchDenseKernelWindowSplitFlush(t *testing.T) {
	f := MustFormat(16, 1)
	r := rng.New(9)
	const in, out, batch = 8, 4, 2 * batchTile
	w := make([][]Posit, out)
	b := make([]Posit, out)
	for j := range w {
		w[j] = make([]Posit, in)
		for i := range w[j] {
			w[j][i] = f.FromFloat64((0.5 + 1.5*r.Float64()) * float64(1-2*r.Intn(2)))
		}
		b[j] = f.FromFloat64(0.5 + r.Float64())
	}
	act := make([]uint64, batch*in)
	for s := 0; s < batch; s++ {
		for i := 0; i < in; i++ {
			v := f.FromFloat64(0.5 + 1.5*r.Float64())
			if s >= batchTile {
				switch (s + i) % 3 {
				case 0:
					v = f.MaxPos()
				case 1:
					v = f.MinPos()
				}
			}
			act[s*in+i] = v.bits
		}
	}
	checkBatchAgainstQuire(t, "split", f, w, b, act, batch)
}

// TestBatchDenseKernelWindowEdge walks the window width across the int64
// limit. A minpos weight and a minpos sample pin the window floor at
// 2·minpos's scale, and three products x·x of one positive posit(16,1)
// value x set its top; sweeping x over every positive pattern widens the
// window one scale step at a time. The widest windows the int64 path
// accepts come within five bits of overflowing it: a bound loosened by
// five bits wraps and fails here.
func TestBatchDenseKernelWindowEdge(t *testing.T) {
	f := MustFormat(16, 1)
	m := f.MinPos().bits
	for pat := uint64(1); pat <= f.MaxPos().bits; pat++ {
		x := f.FromBits(pat)
		w := [][]Posit{{x, x, x, f.MinPos()}}
		nx := x.Neg().bits
		act := []uint64{pat, pat, pat, 0, nx, nx, nx, 0, m, m, m, m}
		checkBatchAgainstQuire(t, "edge", f, w, []Posit{f.Zero()}, act, 3)
	}
}

// TestBatchDenseKernelWindowAllocFree: a warm window-tier flush must not
// allocate, whatever its size.
func TestBatchDenseKernelWindowAllocFree(t *testing.T) {
	f := MustFormat(16, 1)
	r := rng.New(3)
	const in, out, batch = 30, 16, 200
	w := make([][]uint64, out)
	b := make([]uint64, out)
	for j := range w {
		w[j] = make([]uint64, in)
		for i := range w[j] {
			w[j][i] = f.FromFloat64(r.NormMS(0, 1)).bits
		}
		b[j] = f.FromFloat64(r.NormMS(0, 0.5)).bits
	}
	bk, ok := NewBatchDenseKernel(f, w, b)
	if !ok {
		t.Fatal("no batch kernel for posit(16,1)")
	}
	act := make([]uint64, batch*in)
	for i := range act {
		act[i] = f.FromFloat64(r.NormMS(0, 1)).bits
	}
	dst := make([]uint64, batch*out)
	if allocs := testing.AllocsPerRun(10, func() { ForwardBatch(bk, act, dst, batch) }); allocs != 0 {
		t.Fatalf("warm posit(16,1) flush allocates %v objects; want 0", allocs)
	}
}
