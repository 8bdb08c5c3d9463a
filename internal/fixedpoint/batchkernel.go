package fixedpoint

import "repro/internal/bitutil"

// BatchDenseKernel is the GEMM-style batched datapath for one dense
// layer in the fixed arm: a whole flush of samples goes through the
// layer with two samples computed per multiply via SIMD-within-a-
// -register (SWAR) on the packed 64-bit datapath.
//
// The trick is the biased-operand identity. With β = 2^(n-1), write
// every n-bit operand as its biased (unsigned) form u = v + β ∈ [0, 2^n):
//
//	Σ_i w_i·a_i = Σ_i u_w·u_a − β·Σ_i u_w − β·Σ_i u_a + in·β²
//
// The unsigned sum Σ u_w·u_a is the only per-(row, sample) term; the
// weight sum folds into a per-row constant and the activation sum is
// computed once per sample per flush. Because every partial product and
// the whole unsigned sum stay below 2^32 (enforced at construction),
// two samples' activations pack into the two 32-bit lanes of one uint64
// and a single `acc2 += u_w · packed` accumulates both dot products with
// no cross-lane carry — one multiply per two samples. The reconstructed
// signed dot product is exact in int64, after which the readout
// (sign-wrap to the eq.-(3) width, shift, clip) is byte-for-byte the
// per-sample kernel's, so results are bit-identical — the equivalence
// tests sweep this exhaustively.
type BatchDenseKernel struct {
	f       Format
	in, out int
	uw      []uint64 // row-major biased weights (bits ^ β), zero-extended
	bq      []int64  // biases pre-shifted left by q (product scale)
	// rowConst[j] = in·β² − β·Σ_i u_w[j][i]: the weight-side bias terms.
	rowConst     []int64
	wrap         uint // 64 - AccumSize(f, in)
	roundNearest bool
	beta         int64

	// flush scratch, grown on demand.
	ua     []uint32 // sample-major biased activations
	sua    []int64  // per-sample Σ u_a
	packed []uint64 // two-lane packed activations for the current pair
}

// NewBatchDenseKernel builds the SWAR batch kernel. ok is false when the
// configuration has no packed fast path: the eq.-(3) register is wider
// than 64 bits, the format is wider than 8 bits (lanes would need more
// than 32 bits of headroom), or the fan-in is large enough that an
// unsigned lane sum could reach 2^32.
func NewBatchDenseKernel(f Format, w [][]Fixed, b []Fixed, roundNearest bool) (*BatchDenseKernel, bool) {
	f.mustValid()
	out := len(w)
	if out == 0 || len(b) != out || len(w[0]) == 0 {
		return nil, false
	}
	in := len(w[0])
	width := AccumSize(f, in)
	maxU := uint64(1)<<f.n - 1
	if width > 64 || f.n > 8 || uint64(in)*maxU*maxU >= 1<<32 {
		return nil, false
	}
	beta := int64(1) << (f.n - 1)
	k := &BatchDenseKernel{
		f:            f,
		in:           in,
		out:          out,
		uw:           make([]uint64, out*in),
		bq:           make([]int64, out),
		rowConst:     make([]int64, out),
		wrap:         64 - width,
		roundNearest: roundNearest,
		beta:         beta,
	}
	signBit := uint64(beta)
	for j, row := range w {
		if len(row) != in {
			panic("fixedpoint: BatchDenseKernel ragged weight matrix")
		}
		dst := k.uw[j*in : (j+1)*in]
		var suw int64
		for i, v := range row {
			if v.f != f {
				panic("fixedpoint: BatchDenseKernel weight format mismatch")
			}
			u := v.Bits() ^ signBit
			dst[i] = u
			suw += int64(u)
		}
		k.rowConst[j] = int64(in)*beta*beta - beta*suw
	}
	for j, v := range b {
		if v.f != f {
			panic("fixedpoint: BatchDenseKernel bias format mismatch")
		}
		k.bq[j] = v.v << f.q
	}
	return k, true
}

// In returns the layer fan-in.
func (k *BatchDenseKernel) In() int { return k.in }

// Out returns the layer width.
func (k *BatchDenseKernel) Out() int { return k.out }

// Format returns the kernel's fixed-point format.
func (k *BatchDenseKernel) Format() Format { return k.f }

func (k *BatchDenseKernel) grow(b int) {
	if cap(k.ua) < k.in*b {
		k.ua = make([]uint32, k.in*b)
	}
	if cap(k.sua) < b {
		k.sua = make([]int64, b)
	}
	if cap(k.packed) < k.in {
		k.packed = make([]uint64, k.in)
	}
}

// finish applies the per-sample readout to one reconstructed dot
// product: bias, sign-wrap to the register width, shift back to the
// stored scale (truncate or RNE) and clip — exactly the per-sample
// kernel's epilogue.
func (k *BatchDenseKernel) finish(j int, dot int64) uint64 {
	acc := k.bq[j] + dot
	acc = acc << k.wrap >> k.wrap
	var v int64
	if k.roundNearest {
		v = shiftRNE(acc, k.f.q)
	} else {
		v = acc >> k.f.q
	}
	return k.f.FromRaw(v).Bits()
}

// ForwardBatch computes dst[s*k.Out()+j] = round(b[j] + Σ_i
// W[j][i]·act[s*k.In()+i]) for every sample s: flat sample-major planes
// of any uint64-backed code type, read and written in place, with
// len(act) = b·In(), len(dst) = b·Out(). Not safe for concurrent use of
// one kernel.
func ForwardBatch[C ~uint64](k *BatchDenseKernel, act, dst []C, b int) {
	if b < 0 || len(act) != b*k.in || len(dst) != b*k.out {
		panic("fixedpoint: BatchDenseKernel batch size mismatch")
	}
	if b == 0 {
		return
	}
	k.grow(b)
	in, out := k.in, k.out
	mask := bitutil.Mask(k.f.n)
	signBit := uint64(k.beta)
	ua, sua := k.ua, k.sua
	// Decode once per flush: bias every activation (one XOR) and bank the
	// per-sample activation sums.
	for s := 0; s < b; s++ {
		row := act[s*in : (s+1)*in]
		urow := ua[s*in : (s+1)*in]
		var sum int64
		for i, bits := range row {
			u := uint32((uint64(bits) & mask) ^ signBit)
			urow[i] = u
			sum += int64(u)
		}
		sua[s] = sum
	}
	packed := k.packed[:in]
	s := 0
	for ; s+1 < b; s += 2 {
		u0 := ua[s*in : (s+1)*in]
		u1 := ua[(s+1)*in : (s+2)*in]
		for i := range packed {
			packed[i] = uint64(u0[i]) | uint64(u1[i])<<32
		}
		ba0 := k.beta * sua[s]
		ba1 := k.beta * sua[s+1]
		d0 := dst[s*out : (s+1)*out]
		d1 := dst[(s+1)*out : (s+2)*out]
		for j := 0; j < out; j++ {
			row := k.uw[j*in : (j+1)*in]
			var acc2 uint64
			for i, w := range row {
				acc2 += w * packed[i]
			}
			rc := k.rowConst[j]
			d0[j] = C(k.finish(j, int64(acc2&0xFFFFFFFF)-ba0+rc))
			d1[j] = C(k.finish(j, int64(acc2>>32)-ba1+rc))
		}
	}
	if s < b { // odd tail: single-lane pass
		urow := ua[s*in : (s+1)*in]
		ba := k.beta * sua[s]
		d := dst[s*out : (s+1)*out]
		for j := 0; j < out; j++ {
			row := k.uw[j*in : (j+1)*in]
			var acc uint64
			for i, w := range row {
				acc += w * uint64(urow[i])
			}
			d[j] = C(k.finish(j, int64(acc)-ba+k.rowConst[j]))
		}
	}
}
