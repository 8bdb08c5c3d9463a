package minifloat

import (
	"fmt"

	"repro/internal/bitutil"
	"repro/internal/dyadic"
	"repro/internal/wide"
)

// CeilLog2Ratio returns ceil(log2(max/min)) for the format, computed
// exactly: max/min = 2^(expmax-1) × (2^(wf+1) - 1).
func (f Format) CeilLog2Ratio() uint {
	f.mustValid()
	return uint(f.ExpMax()-1) + bitutil.Clog2(uint64(1)<<(f.wf+1)-1)
}

// AccumSize returns the paper's eq. (3) accumulator width for k products:
//
//	wa = ceil(log2 k) + 2 × ceil(log2(max/min)) + 2
func AccumSize(f Format, k int) uint {
	if k < 1 {
		panic("minifloat: accumulator capacity must be >= 1")
	}
	return bitutil.Clog2(uint64(k)) + 2*f.CeilLog2Ratio() + 2
}

// Accumulator is the float EMAC's wide fixed-point register (Fig. 4): the
// Kulisch-style accumulator into which exact products of minifloats are
// added after conversion to fixed point, with one rounding at readout.
type Accumulator struct {
	f        Format
	capacity int
	fracBits uint // binary point: 2 × (bias - 1 + wf)
	acc      wide.Int
	adds     int
	nan      bool
}

// NewAccumulator returns an empty accumulator sized by eq. (3).
func NewAccumulator(f Format, k int) *Accumulator {
	f.mustValid()
	return &Accumulator{
		f:        f,
		capacity: k,
		fracBits: 2 * uint(f.Bias()-1+int(f.wf)),
		acc:      wide.Make(AccumSize(f, k)),
	}
}

// Format returns the accumulated format.
func (a *Accumulator) Format() Format { return a.f }

// Capacity returns the sized-for accumulation count.
func (a *Accumulator) Capacity() int { return a.capacity }

// Width returns the register width (eq. (3)).
func (a *Accumulator) Width() uint { return a.acc.Width() }

// Adds returns the number of accumulations since reset.
func (a *Accumulator) Adds() int { return a.adds }

// Reset clears the register.
func (a *Accumulator) Reset() {
	a.acc.SetZero()
	a.adds = 0
	a.nan = false
}

// ResetToBias clears the register and preloads the bias value, mirroring
// the paper's D-flip-flop reset trick.
func (a *Accumulator) ResetToBias(bias Float) {
	a.Reset()
	a.AddFloat(bias)
	a.adds = 0
}

// AddFloat accumulates the exact value of x.
func (a *Accumulator) AddFloat(x Float) {
	if x.f != a.f {
		panic("minifloat: accumulator format mismatch")
	}
	if x.IsNaN() || x.IsInf() {
		a.nan = true
		return
	}
	a.adds++
	if x.IsZero() {
		return
	}
	d := x.decode()
	// The register's fraction depth covers products down to min²; a
	// single input's LSB sits at scale >= 1-bias-wf >= -fracBits/2.
	shift := int(a.fracBits) + d.sf - int(d.sigW) + 1
	if shift < 0 {
		panic("minifloat: accumulator shift underflow")
	}
	if d.sign {
		a.acc.SubUint64Shifted(d.sig, uint(shift))
	} else {
		a.acc.AddUint64Shifted(d.sig, uint(shift))
	}
}

// MulAdd accumulates the exact product w × x: multiply, convert to fixed
// point (2's complement by the product sign, shift by the biased scale
// factor), wide add — the datapath of Fig. 4.
func (a *Accumulator) MulAdd(w, x Float) {
	if w.f != a.f || x.f != a.f {
		panic("minifloat: accumulator format mismatch")
	}
	if w.IsNaN() || x.IsNaN() || w.IsInf() || x.IsInf() {
		a.nan = true
		return
	}
	a.adds++
	if w.IsZero() || x.IsZero() {
		return
	}
	dw, dx := w.decode(), x.decode()
	prod := dw.sig * dx.sig
	lsbScale := dw.sf - int(dw.sigW) + 1 + dx.sf - int(dx.sigW) + 1
	shift := int(a.fracBits) + lsbScale
	if shift < 0 {
		panic("minifloat: accumulator shift underflow")
	}
	if dw.sign != dx.sign {
		a.acc.SubUint64Shifted(prod, uint(shift))
	} else {
		a.acc.AddUint64Shifted(prod, uint(shift))
	}
}

// Result rounds the register to the nearest representable value, with the
// paper's semantics: RNE, gradual underflow, clip at ±Max, never Inf.
func (a *Accumulator) Result() Float {
	if a.nan {
		return a.f.NaN()
	}
	neg, l, sig, sticky := a.acc.Readout()
	if l == 0 {
		return a.f.Zero()
	}
	return a.f.encode(neg, int(l)-1-int(a.fracBits), sig, min(l, 64), sticky)
}

// Dyadic returns the current exact register value (oracle hook).
func (a *Accumulator) Dyadic() dyadic.D {
	return dyadic.FromBig(a.acc.Big(), -int(a.fracBits))
}

// IsNaN reports whether a NaN/Inf was absorbed.
func (a *Accumulator) IsNaN() bool { return a.nan }

// DotProduct computes the exactly rounded dot product of minifloat
// vectors with a single rounding.
func DotProduct(w, x []Float) Float {
	if len(w) != len(x) {
		panic("minifloat: DotProduct length mismatch")
	}
	if len(w) == 0 {
		panic("minifloat: DotProduct of empty vectors")
	}
	a := NewAccumulator(w[0].f, len(w))
	for i := range w {
		a.MulAdd(w[i], x[i])
	}
	return a.Result()
}

// String renders accumulator state for debugging.
func (a *Accumulator) String() string {
	return fmt.Sprintf("facc[%s,k=%d,w=%d]", a.f, a.capacity, a.acc.Width())
}
