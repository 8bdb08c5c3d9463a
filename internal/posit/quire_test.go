package posit

import (
	"testing"

	"repro/internal/dyadic"
	"repro/internal/rng"
)

func TestQuireSizeEq4(t *testing.T) {
	// Hand-checked instances of eq. (4): qsize = 2^(es+2)(n-2) + 2 + clog2(k).
	cases := []struct {
		n, es uint
		k     int
		want  uint
	}{
		{8, 0, 1, 26},      // 4*6+2+0
		{8, 0, 16, 30},     // 4*6+2+4
		{8, 1, 16, 54},     // 8*6+2+4
		{8, 2, 16, 102},    // 16*6+2+4
		{5, 0, 8, 17},      // 4*3+2+3
		{16, 1, 128, 121},  // 8*14+2+7
		{32, 2, 1024, 492}, // 16*30+2+10
	}
	for _, c := range cases {
		f := MustFormat(c.n, c.es)
		if got := QuireSize(f, c.k); got != c.want {
			t.Errorf("QuireSize(%s,%d) = %d want %d", f, c.k, got, c.want)
		}
	}
}

// TestQuireExactness: the quire register must hold the exact dot product —
// compare against the dyadic oracle before rounding.
func TestQuireExactness(t *testing.T) {
	for _, es := range []uint{0, 1, 2} {
		f := MustFormat(8, es)
		r := rng.New(42 + uint64(es))
		for trial := 0; trial < 200; trial++ {
			k := 1 + r.Intn(64)
			q := NewQuire(f, k)
			exact := dyadic.Zero()
			for i := 0; i < k; i++ {
				w := f.FromBits(r.Uint64() & f.Mask())
				a := f.FromBits(r.Uint64() & f.Mask())
				if w.IsNaR() || a.IsNaR() {
					continue
				}
				q.MulAdd(w, a)
				dw, _ := w.Dyadic()
				da, _ := a.Dyadic()
				exact = exact.Add(dw.Mul(da))
			}
			if got := q.Dyadic(); got.Cmp(exact) != 0 {
				t.Fatalf("%s k=%d: quire %v != exact %v", f, k, got, exact)
			}
			want := f.FromDyadic(exact)
			if got := q.Result(); got.Bits() != want.Bits() {
				t.Fatalf("%s k=%d: Result %v want %v", f, k, got, want)
			}
		}
	}
}

// TestQuireVsSequentialRounding demonstrates the paper's premise: the
// quire (single rounding) differs from sequentially rounded MACs, and the
// quire always matches the exactly-rounded result.
func TestQuireVsSequentialRounding(t *testing.T) {
	f := MustFormat(8, 0)
	r := rng.New(7)
	diffs := 0
	for trial := 0; trial < 500; trial++ {
		k := 16
		ws := make([]Posit, k)
		as := make([]Posit, k)
		exact := dyadic.Zero()
		for i := range ws {
			for {
				ws[i] = f.FromBits(r.Uint64() & f.Mask())
				if !ws[i].IsNaR() {
					break
				}
			}
			for {
				as[i] = f.FromBits(r.Uint64() & f.Mask())
				if !as[i].IsNaR() {
					break
				}
			}
			dw, _ := ws[i].Dyadic()
			da, _ := as[i].Dyadic()
			exact = exact.Add(dw.Mul(da))
		}
		fused := DotProduct(ws, as)
		if want := f.FromDyadic(exact); fused.Bits() != want.Bits() {
			t.Fatalf("DotProduct != exactly rounded: %v vs %v", fused, want)
		}
		// naive: round after every multiply and every add
		naive := f.Zero()
		for i := range ws {
			naive = naive.Add(ws[i].Mul(as[i]))
		}
		if naive.Bits() != fused.Bits() {
			diffs++
		}
	}
	if diffs == 0 {
		t.Error("expected the exact EMAC to beat sequential rounding on some trials")
	}
	t.Logf("quire differed from sequentially rounded MAC on %d/500 trials", diffs)
}

func TestQuireBias(t *testing.T) {
	f := MustFormat(8, 1)
	bias := f.FromFloat64(0.75)
	q := NewQuire(f, 4)
	q.ResetToBias(bias)
	if q.Adds() != 0 {
		t.Error("ResetToBias must not count as an accumulation")
	}
	q.MulAdd(f.One(), f.One())
	want := f.FromFloat64(1.75)
	if got := q.Result(); got.Bits() != want.Bits() {
		t.Errorf("bias+1 = %v want %v", got, want)
	}
}

func TestQuireNaRAbsorbs(t *testing.T) {
	f := MustFormat(8, 0)
	q := NewQuire(f, 4)
	q.MulAdd(f.One(), f.One())
	q.MulAdd(f.NaR(), f.One())
	if !q.IsNaR() || !q.Result().IsNaR() {
		t.Error("quire must absorb NaR")
	}
	q.Reset()
	if q.IsNaR() {
		t.Error("Reset must clear NaR")
	}
}

func TestQuireZeroAndCancel(t *testing.T) {
	f := MustFormat(8, 2)
	q := NewQuire(f, 8)
	if !q.Result().IsZero() {
		t.Error("empty quire must read zero")
	}
	x := f.FromFloat64(3.25)
	q.AddPosit(x)
	q.SubPosit(x)
	if !q.Result().IsZero() {
		t.Error("x - x must cancel to exactly zero")
	}
}

// TestQuireMinposSquared exercises the extreme corner of eq. (4): the
// product minpos² must land exactly at bit 0 of the register.
func TestQuireMinposSquared(t *testing.T) {
	for _, es := range []uint{0, 1, 2, 3} {
		f := MustFormat(8, es)
		q := NewQuire(f, 2)
		q.MulAdd(f.MinPos(), f.MinPos())
		exact, _ := f.MinPos().Dyadic()
		exact = exact.Mul(exact)
		if got := q.Dyadic(); got.Cmp(exact) != 0 {
			t.Fatalf("%s: minpos² held inexactly: %v vs %v", f, got, exact)
		}
		// and maxpos²: top of the register
		q.Reset()
		q.MulAdd(f.MaxPos(), f.MaxPos())
		dmax, _ := f.MaxPos().Dyadic()
		if got := q.Dyadic(); got.Cmp(dmax.Mul(dmax)) != 0 {
			t.Fatalf("%s: maxpos² held inexactly", f)
		}
	}
}

// TestQuireCarryHeadroom: k copies of maxpos² must accumulate without
// overflow for the declared capacity.
func TestQuireCarryHeadroom(t *testing.T) {
	f := MustFormat(6, 1)
	k := 64
	q := NewQuire(f, k)
	m := f.MaxPos()
	dmax, _ := m.Dyadic()
	exact := dyadic.Zero()
	for i := 0; i < k; i++ {
		q.MulAdd(m, m)
		exact = exact.Add(dmax.Mul(dmax))
	}
	if got := q.Dyadic(); got.Cmp(exact) != 0 {
		t.Fatalf("accumulating %d×maxpos² overflowed: %v vs %v", k, got, exact)
	}
	if got := q.Result(); got.Bits() != m.Bits() {
		t.Fatalf("rounded sum %v want maxpos", got)
	}
	// Negative side as well.
	q.Reset()
	exact = dyadic.Zero()
	for i := 0; i < k; i++ {
		q.MulAdd(m.Neg(), m)
		exact = exact.Add(dmax.Neg().Mul(dmax))
	}
	if got := q.Dyadic(); got.Cmp(exact) != 0 {
		t.Fatalf("negative accumulation overflowed")
	}
}

func TestSumMatchesOracle(t *testing.T) {
	f := MustFormat(8, 0)
	r := rng.New(99)
	for trial := 0; trial < 100; trial++ {
		k := 1 + r.Intn(32)
		xs := make([]Posit, k)
		exact := dyadic.Zero()
		for i := range xs {
			for {
				xs[i] = f.FromBits(r.Uint64() & f.Mask())
				if !xs[i].IsNaR() {
					break
				}
			}
			d, _ := xs[i].Dyadic()
			exact = exact.Add(d)
		}
		got := Sum(xs)
		want := f.FromDyadic(exact)
		if got.Bits() != want.Bits() {
			t.Fatalf("Sum = %v want %v", got, want)
		}
	}
}

func TestDotProductValidation(t *testing.T) {
	f := MustFormat(8, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	DotProduct([]Posit{f.One()}, []Posit{})
}

func TestTruncatedQuireBasics(t *testing.T) {
	f := MustFormat(8, 1)
	full := NewQuire(f, 8)
	trunc := NewTruncatedQuire(f, 8, 20)
	if trunc.Width() != full.Width()-20 {
		t.Errorf("truncated width %d want %d", trunc.Width(), full.Width()-20)
	}
	if trunc.Dropped() != 20 || full.Dropped() != 0 {
		t.Error("Dropped bookkeeping")
	}
	// Values well above the floor accumulate identically.
	a, b := f.FromFloat64(1.5), f.FromFloat64(2)
	full.MulAdd(a, b)
	trunc.MulAdd(a, b)
	if full.Result().Bits() != trunc.Result().Bits() {
		t.Error("large products must agree")
	}
}

func TestTruncatedQuireDropsTinyProducts(t *testing.T) {
	f := MustFormat(8, 1)
	// minpos² sits exactly at bit 0 of the exact register; any truncation
	// removes it entirely.
	trunc := NewTruncatedQuire(f, 4, 8)
	trunc.MulAdd(f.MinPos(), f.MinPos())
	if !trunc.Result().IsZero() {
		t.Errorf("minpos² must vanish in a truncated quire, got %v", trunc.Result())
	}
	full := NewQuire(f, 4)
	full.MulAdd(f.MinPos(), f.MinPos())
	if full.Result().IsZero() {
		t.Error("exact quire must keep minpos²")
	}
}

func TestTruncatedQuireAccumulatedError(t *testing.T) {
	// Many small products that individually truncate to nothing: the
	// exact quire accumulates them into a visible sum; the truncated one
	// loses everything — the failure mode that bounds how much drop a
	// design can afford.
	f := MustFormat(8, 1)
	x := f.MinPos()
	k := 1 << 10
	full := NewQuire(f, k)
	drop := uint(10)
	trunc := NewTruncatedQuire(f, k, drop)
	for i := 0; i < k; i++ {
		full.MulAdd(x, x)
		trunc.MulAdd(x, x)
	}
	if full.Result().IsZero() {
		t.Error("exact quire lost the accumulated mass")
	}
	if !trunc.Result().IsZero() {
		t.Error("truncated quire should have lost the sub-floor mass")
	}
}

func TestTruncatedQuirePanicsOnFullDrop(t *testing.T) {
	f := MustFormat(8, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("dropping all fraction bits must panic")
		}
	}()
	NewTruncatedQuire(f, 4, (uint(1)<<1)*(8-2))
}

// TestQuireResultAllocs: Result reads the register in place, so it never
// allocates, posit32's 400-bit register included; and DotProduct, whose
// quire lives on the stack, allocates nothing for registers up to 256
// bits, through both table tiers and the MulAdd loop.
func TestQuireResultAllocs(t *testing.T) {
	r := rng.New(12)
	for _, f := range []Format{MustFormat(8, 0), MustFormat(12, 1), MustFormat(16, 1), MustFormat(16, 2), MustFormat(32, 2)} {
		const k = 30
		w, a := make([]Posit, k), make([]Posit, k)
		q := NewQuire(f, k)
		for i := range w {
			w[i], a[i] = f.FromFloat64(r.NormMS(0, 1)), f.FromFloat64(-r.NormMS(0, 1))
			q.MulAdd(w[i], a[i])
		}
		if allocs := testing.AllocsPerRun(10, func() { q.Result() }); allocs != 0 {
			t.Errorf("%s (%d bits): Result allocates %v objects; want 0", f, q.Width(), allocs)
		}
		if q.Width() > 256 {
			continue // DotProduct's register words go on the heap
		}
		if allocs := testing.AllocsPerRun(10, func() { DotProduct(w, a) }); allocs != 0 {
			t.Errorf("%s (%d bits): DotProduct allocates %v objects; want 0", f, q.Width(), allocs)
		}
	}
}
