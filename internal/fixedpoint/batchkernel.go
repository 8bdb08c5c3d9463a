package fixedpoint

import "repro/internal/bitutil"

// BatchDenseKernel is the GEMM-style batched datapath for one dense
// layer in the fixed arm: a whole flush of samples goes through the
// layer two samples per multiply, as signed 32-bit lanes of one int64
// (SIMD within a register). For each pair of samples s, s+1 the packed
// activation a_s + a_{s+1}·2^32 of every column where either sample is
// nonzero is listed once (zeros add nothing to an exact sum); when at
// least half the columns are zero in both samples, each row accumulates
// over that list alone, and otherwise over every column:
//
//	acc = Σ_i w_i·(a_{s,i} + a_{s+1,i}·2^32) = L + H·2^32
//
// Both dot products come back as L = int64(int32(acc)) and
// H = (acc−L)>>32. That is exact while every lane sum stays below 2^31
// in magnitude; each term is at most 2^(2n−2) in magnitude, so the
// constructor requires in·2^(2n−2) < 2^31. int64 arithmetic is exact
// modulo 2^64, so sign-wrapping each sum to the eq.-(3) register width
// reproduces the wide register's residue bit for bit; the readout (bias,
// sign-wrap, shift, clip) is then Accumulator.Result's, so results are
// bit-identical to driving an Accumulator per sample — the equivalence
// tests sweep this exhaustively.
type BatchDenseKernel struct {
	f            Format
	in, out      int
	w            []int64 // row-major out×in sign-extended raw weights
	bq           []int64 // biases pre-shifted left by q (product scale)
	wrap         uint    // 64 - AccumSize(f, in)
	roundNearest bool
	lo, hi       int64  // the stored range the readout clips to
	mask         uint64 // the n-bit pattern mask
	// ext[p] is the raw value of the n-bit pattern in p's low byte.
	ext [256]int64

	// Pair scratch: the current pair's packed activations, and the
	// columns where either sample is nonzero with theirs.
	packed []int64
	cols   []int32
	pk     []int64
}

// NewBatchDenseKernel builds the signed-lane batch kernel of a layer of
// format f from its row-major weight matrix and bias vector, given as
// n-bit patterns in any uint64-backed code type. ok is false when the
// configuration has no packed fast path: the eq.-(3) register is wider
// than 64 bits, the format is wider than 8 bits, or the fan-in is large
// enough that a lane sum could reach 2^31 in magnitude.
func NewBatchDenseKernel[C ~uint64](f Format, w [][]C, b []C, roundNearest bool) (*BatchDenseKernel, bool) {
	f.mustValid()
	out := len(w)
	if out == 0 || len(b) != out || len(w[0]) == 0 {
		return nil, false
	}
	in := len(w[0])
	width := AccumSize(f, in)
	if width > 64 || f.n > 8 || uint64(in)<<(2*f.n-2) >= 1<<31 {
		return nil, false
	}
	k := &BatchDenseKernel{
		f:            f,
		in:           in,
		out:          out,
		w:            make([]int64, out*in),
		bq:           make([]int64, out),
		wrap:         64 - width,
		roundNearest: roundNearest,
		lo:           f.MinInt(),
		hi:           f.MaxInt(),
		mask:         bitutil.Mask(f.n),
		packed:       make([]int64, in),
		cols:         make([]int32, in),
		pk:           make([]int64, in),
	}
	for p := range k.ext {
		k.ext[p] = f.FromBits(uint64(p)).v
	}
	for j, row := range w {
		if len(row) != in {
			panic("fixedpoint: BatchDenseKernel ragged weight matrix")
		}
		dst := k.w[j*in : (j+1)*in]
		for i, c := range row {
			dst[i] = k.ext[uint8(c)]
		}
		k.bq[j] = k.ext[uint8(b[j])] << f.q
	}
	return k, true
}

// finish applies the per-sample readout to one dot product: bias,
// sign-wrap to the register width, shift back to the stored scale
// (truncate or RNE) and clip — exactly Accumulator.Result.
func (k *BatchDenseKernel) finish(j int, dot int64) uint64 {
	acc := k.bq[j] + dot
	acc = acc << k.wrap >> k.wrap
	var v int64
	if k.roundNearest {
		v = shiftRNE(acc, k.f.q)
	} else {
		v = acc >> k.f.q
	}
	return uint64(min(max(v, k.lo), k.hi)) & k.mask // FromRaw(v).Bits()
}

// ForwardBatch computes dst[s*out+j] = round(b[j] + Σ_i
// W[j][i]·act[s*in+i]) for every sample s: flat sample-major planes of
// any uint64-backed code type, read and written in place, with len(act) =
// b·in, len(dst) = b·out. Not safe for concurrent use of
// one kernel.
func ForwardBatch[C ~uint64](k *BatchDenseKernel, act, dst []C, b int) {
	if b < 0 || len(act) != b*k.in || len(dst) != b*k.out {
		panic("fixedpoint: BatchDenseKernel batch size mismatch")
	}
	in, out := k.in, k.out
	for s := 0; s < b; s += 2 {
		// Pack the pair; an odd tail packs its last sample against a zero
		// lane (hi masked off by hm).
		pair := s+1 < b
		lo := act[s*in : (s+1)*in]
		hi, hm := lo, int64(0)
		if pair {
			hi, hm = act[(s+1)*in:(s+2)*in], -1
		}
		n := packPair(&k.ext, k.packed, k.cols, k.pk, lo, hi, hm)
		// A gathered term costs about 1.7 dense ones: on 16×30 and 117×32
		// layers (Intel Xeon) the list broke even with 40–55% of a pair's
		// columns zero in both samples, so it is taken from a half on.
		sparse := 2*(in-n) >= in
		for j := 0; j < out; j++ {
			row := k.w[j*in : (j+1)*in]
			var acc int64
			if sparse {
				acc = dotGather(row, k.cols[:n], k.pk[:n])
			} else {
				acc = dot(row, k.packed)
			}
			l := int64(int32(acc))
			dst[s*out+j] = C(k.finish(j, l))
			if pair {
				dst[(s+1)*out+j] = C(k.finish(j, (acc-l)>>32))
			}
		}
	}
}

// packPair packs the pair's raw values (ext of each pattern) as
// lo[i] + (hi[i]·2^32 & hm) into packed, lists the columns where that is
// nonzero in cols/pk, and returns how many. Out of line: inlined into
// ForwardBatch, its operands spill to the stack.
//
//go:noinline
func packPair[C ~uint64](ext *[256]int64, packed []int64, cols []int32, pk []int64, lo, hi []C, hm int64) int {
	packed, hi = packed[:len(lo)], hi[:len(lo)]
	n := 0
	for i, c := range lo {
		v := ext[uint8(c)] + ext[uint8(hi[i])]<<32&hm
		packed[i] = v
		cols[n], pk[n] = int32(i), v
		n += int(uint64(v|-v) >> 63)
	}
	return n
}

// dot is Σ row[i]·packed[i].
func dot(row, packed []int64) int64 {
	packed = packed[:len(row)]
	var acc int64
	for i, w := range row {
		acc += w * packed[i]
	}
	return acc
}

// dotGather is Σ row[cols[m]]·pk[m].
func dotGather(row []int64, cols []int32, pk []int64) int64 {
	pk = pk[:len(cols)]
	var acc int64
	for m, i := range cols {
		acc += row[i] * pk[m]
	}
	return acc
}
