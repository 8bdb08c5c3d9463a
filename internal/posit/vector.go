package posit

// Vector and matrix kernels built on the quire: the "posit BLAS" surface
// a Deep Positron user needs beyond single MACs. Every kernel follows the
// paper's exactness discipline — one rounding per output element, with
// all intermediate products and sums held exactly in a Kulisch register.

// Min returns the smaller of p and q in the numeric order (NaR loses to
// any real value, matching the pattern total order).
func Min(p, q Posit) Posit {
	if p.Cmp(q) <= 0 {
		return p
	}
	return q
}

// Max returns the larger of p and q.
func Max(p, q Posit) Posit {
	if p.Cmp(q) >= 0 {
		return p
	}
	return q
}

// CopySign returns p with q's sign (NaR passes through).
func CopySign(p, q Posit) Posit {
	if p.IsNaR() || q.IsNaR() || p.IsZero() {
		return p
	}
	if p.Negative() != q.Negative() {
		return p.Neg()
	}
	return p
}

// Vector is a slice of posits sharing one format.
type Vector []Posit

// NewVector quantises a float64 slice into format f.
func NewVector(f Format, xs []float64) Vector {
	out := make(Vector, len(xs))
	for i, x := range xs {
		out[i] = f.FromFloat64(x)
	}
	return out
}

// Float64s decodes the vector.
func (v Vector) Float64s() []float64 {
	out := make([]float64, len(v))
	for i, p := range v {
		out[i] = p.Float64()
	}
	return out
}

// format returns the common format (panics on empty or mixed vectors).
func (v Vector) format() Format {
	if len(v) == 0 {
		panic("posit: empty vector")
	}
	f := v[0].Format()
	for _, p := range v[1:] {
		if p.Format() != f {
			panic("posit: mixed formats in vector")
		}
	}
	return f
}

// Dot computes the exactly rounded inner product <v, w>.
func (v Vector) Dot(w Vector) Posit {
	return DotProduct(v, w)
}

// AXPY returns alpha·x + y with one rounding per element (each element
// goes through a two-term quire: the scalar FMA).
func AXPY(alpha Posit, x, y Vector) Vector {
	if len(x) != len(y) {
		panic("posit: AXPY length mismatch")
	}
	out := make(Vector, len(x))
	for i := range x {
		out[i] = alpha.FMA(x[i], y[i])
	}
	return out
}

// Norm2 returns the Euclidean norm with a single rounding: the sum of
// squares is held exactly in a quire, rounded once, then square-rooted
// (two roundings total — the minimum achievable with a posit result).
func (v Vector) Norm2() Posit {
	f := v.format()
	q := NewQuire(f, len(v))
	for _, p := range v {
		q.MulAdd(p, p)
	}
	return q.Result().Sqrt()
}

// Sum returns the exactly rounded sum of the elements.
func (v Vector) Sum() Posit {
	return Sum(v)
}

// Matrix is a dense row-major posit matrix.
type Matrix struct {
	Rows, Cols int
	Data       []Posit // len Rows*Cols
}

// NewMatrix quantises a row-major float64 matrix.
func NewMatrix(f Format, rows, cols int, xs []float64) *Matrix {
	if len(xs) != rows*cols {
		panic("posit: matrix size mismatch")
	}
	m := &Matrix{Rows: rows, Cols: cols, Data: make([]Posit, len(xs))}
	for i, x := range xs {
		m.Data[i] = f.FromFloat64(x)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) Posit { return m.Data[i*m.Cols+j] }

// Row returns row i as a vector view.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// MulVec computes y = M·x with one rounding per output element (each row
// is a quire dot product) — exactly the computation of one Deep Positron
// layer without bias and activation.
func (m *Matrix) MulVec(x Vector) Vector {
	if len(x) != m.Cols {
		panic("posit: MulVec dimension mismatch")
	}
	out := make(Vector, m.Rows)
	for i := range out {
		out[i] = DotProduct(m.Row(i), x)
	}
	return out
}

// Mul computes C = A·B with one rounding per element of C: each is the
// DotProduct of a row of A and a column of B.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic("posit: Mul dimension mismatch")
	}
	c := &Matrix{Rows: m.Rows, Cols: b.Cols, Data: make([]Posit, m.Rows*b.Cols)}
	col := make([]Posit, b.Rows)
	for j := 0; j < b.Cols; j++ {
		for k := range col {
			col[k] = b.At(k, j)
		}
		for i := 0; i < m.Rows; i++ {
			c.Data[i*b.Cols+j] = DotProduct(m.Row(i), col)
		}
	}
	return c
}
