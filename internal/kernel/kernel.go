// Package kernel defines the kernel functions evaluated between point pairs
// and the blocked batch-assembly routines that the construction, nearfield,
// and on-the-fly code paths share.
//
// The paper accelerates kernel evaluation with SIMD intrinsics (§III-C);
// here the equivalent substrate is cache-blocked assembly with hoisted
// bounds checks and fused distance/kernel inner loops, with specializations
// for the common 2-D and 3-D cases.
package kernel

import (
	"fmt"
	"math"
	"strings"

	"h2ds/internal/mat"
	"h2ds/internal/pointset"
)

// Pairwise is the general kernel interface: any (possibly unsymmetric)
// function K(x, y) of two d-dimensional points. The H² machinery accepts
// any Pairwise kernel; radial kernels additionally satisfy Kernel and get
// fused distance/evaluation assembly loops.
type Pairwise interface {
	// EvalPair returns K(x, y).
	EvalPair(x, y []float64) float64
	// Symmetric reports whether K(x, y) == K(y, x) for all inputs; the H²
	// construction shares bases and stores one coupling triangle when true.
	Symmetric() bool
	// Name returns a short identifier ("coulomb", "gaussian", ...).
	Name() string
}

// BlockAssembler is an optional Pairwise extension for kernels whose values
// come from a backing store rather than a coordinate formula (entry oracles:
// internal/oracle). Assemble consults it before its radial/pairwise
// dispatch, so such kernels fetch a whole submatrix in one call instead of
// len(rows)·len(cols) EvalPair round trips. AssembleBlock receives dst
// already shaped len(rows)×len(cols) and reports whether it handled the
// block; false falls back to the pairwise loop.
type BlockAssembler interface {
	AssembleBlock(dst *mat.Dense, x *pointset.Points, rows []int, y *pointset.Points, cols []int) bool
}

// Kernel is a radial, symmetric kernel function K(x, y) = f(||x-y||₂) on
// d-dimensional points.
//
// All kernels in this package depend on the points only through the
// Euclidean distance, so implementations provide EvalDist and the assembly
// loops compute the distance once per pair.
type Kernel interface {
	Pairwise
	// EvalDist returns K at distance r >= 0.
	EvalDist(r float64) float64
}

// Eval evaluates k between two coordinate slices of equal length.
func Eval(k Kernel, x, y []float64) float64 {
	return k.EvalDist(pointset.Dist(x, y))
}

// Coulomb is the kernel 1/r used for electrostatics and gravitation. The
// singular diagonal follows the fast-summation convention K(x, x) = 0
// (self-interaction excluded), matching what an FMM-style potential sum
// computes.
type Coulomb struct{}

// EvalDist implements Kernel.
func (Coulomb) EvalDist(r float64) float64 {
	if r == 0 {
		return 0
	}
	return 1 / r
}

// EvalPair implements Pairwise.
func (k Coulomb) EvalPair(x, y []float64) float64 { return k.EvalDist(pointset.Dist(x, y)) }

// Symmetric implements Pairwise; radial kernels are symmetric.
func (Coulomb) Symmetric() bool { return true }

// Name implements Kernel.
func (Coulomb) Name() string { return "coulomb" }

// CoulombCubed is the kernel 1/r³ from the paper's generality study (Fig 9),
// with the same zero-diagonal convention as Coulomb.
type CoulombCubed struct{}

// EvalDist implements Kernel.
func (CoulombCubed) EvalDist(r float64) float64 {
	if r == 0 {
		return 0
	}
	return 1 / (r * r * r)
}

// EvalPair implements Pairwise.
func (k CoulombCubed) EvalPair(x, y []float64) float64 { return k.EvalDist(pointset.Dist(x, y)) }

// Symmetric implements Pairwise; radial kernels are symmetric.
func (CoulombCubed) Symmetric() bool { return true }

// Name implements Kernel.
func (CoulombCubed) Name() string { return "coulomb3" }

// Exponential is the kernel exp(-r).
type Exponential struct{}

// EvalDist implements Kernel.
func (Exponential) EvalDist(r float64) float64 { return math.Exp(-r) }

// EvalPair implements Pairwise.
func (k Exponential) EvalPair(x, y []float64) float64 { return k.EvalDist(pointset.Dist(x, y)) }

// Symmetric implements Pairwise; radial kernels are symmetric.
func (Exponential) Symmetric() bool { return true }

// Name implements Kernel.
func (Exponential) Name() string { return "exp" }

// Gaussian is the kernel exp(-r²/Scale). The paper's Fig 9 uses Scale = 0.1.
type Gaussian struct {
	Scale float64
}

// EvalDist implements Kernel.
func (g Gaussian) EvalDist(r float64) float64 {
	s := g.Scale
	if s == 0 {
		s = 0.1
	}
	return math.Exp(-r * r / s)
}

// EvalPair implements Pairwise.
func (g Gaussian) EvalPair(x, y []float64) float64 { return g.EvalDist(pointset.Dist(x, y)) }

// Symmetric implements Pairwise; radial kernels are symmetric.
func (Gaussian) Symmetric() bool { return true }

// Name implements Kernel.
func (Gaussian) Name() string { return "gaussian" }

// Matern32 is the Matérn-3/2 kernel (1 + √3 r/ℓ) exp(-√3 r/ℓ), a common
// Gaussian-process covariance; included as an extension beyond the paper's
// four kernels to exercise kernel generality further.
type Matern32 struct {
	Length float64
}

// EvalDist implements Kernel.
func (m Matern32) EvalDist(r float64) float64 {
	l := m.Length
	if l == 0 {
		l = 1
	}
	a := math.Sqrt(3) * r / l
	if a > 700 {
		// exp(-a) underflows; avoid Inf * 0 = NaN for extreme distances.
		return 0
	}
	return (1 + a) * math.Exp(-a)
}

// EvalPair implements Pairwise.
func (m Matern32) EvalPair(x, y []float64) float64 { return m.EvalDist(pointset.Dist(x, y)) }

// Symmetric implements Pairwise; radial kernels are symmetric.
func (Matern32) Symmetric() bool { return true }

// Name implements Kernel.
func (Matern32) Name() string { return "matern32" }

// Matern52 is the Matérn-5/2 kernel (1 + a + a²/3)·exp(-a) with
// a = √5·r/ℓ, the twice-differentiable sibling of Matern32.
type Matern52 struct {
	Length float64
}

// EvalDist implements Kernel.
func (m Matern52) EvalDist(r float64) float64 {
	l := m.Length
	if l == 0 {
		l = 1
	}
	a := math.Sqrt(5) * r / l
	if a > 700 {
		return 0
	}
	return (1 + a + a*a/3) * math.Exp(-a)
}

// EvalPair implements Pairwise.
func (m Matern52) EvalPair(x, y []float64) float64 { return m.EvalDist(pointset.Dist(x, y)) }

// Symmetric implements Pairwise; radial kernels are symmetric.
func (Matern52) Symmetric() bool { return true }

// Name implements Kernel.
func (Matern52) Name() string { return "matern52" }

// InverseMultiquadric is the kernel 1/√(r² + C²), a smooth-everywhere
// (C > 0) relative of the Coulomb kernel popular in RBF interpolation.
type InverseMultiquadric struct {
	C float64
}

// EvalDist implements Kernel.
func (k InverseMultiquadric) EvalDist(r float64) float64 {
	c := k.C
	if c == 0 {
		c = 1
	}
	return 1 / math.Sqrt(r*r+c*c)
}

// EvalPair implements Pairwise.
func (k InverseMultiquadric) EvalPair(x, y []float64) float64 {
	return k.EvalDist(pointset.Dist(x, y))
}

// Symmetric implements Pairwise; radial kernels are symmetric.
func (InverseMultiquadric) Symmetric() bool { return true }

// Name implements Kernel.
func (InverseMultiquadric) Name() string { return "imq" }

// ThinPlate is the thin-plate spline kernel r²·log r (with the usual
// K(x, x) = 0 continuation). Unlike every other kernel here it is
// sign-changing and grows with distance — a stress test for the
// sign-oblivious parts of the pipeline (sampling, pivoted factorization).
type ThinPlate struct{}

// EvalDist implements Kernel.
func (ThinPlate) EvalDist(r float64) float64 {
	if r == 0 {
		return 0
	}
	return r * r * math.Log(r)
}

// EvalPair implements Pairwise.
func (k ThinPlate) EvalPair(x, y []float64) float64 { return k.EvalDist(pointset.Dist(x, y)) }

// Symmetric implements Pairwise; radial kernels are symmetric.
func (ThinPlate) Symmetric() bool { return true }

// Name implements Kernel.
func (ThinPlate) Name() string { return "thinplate" }

// registry maps harness names to kernel constructors with their standard
// parameters (the paper's settings where it fixes one). registryNames keeps
// the presentation order for help text and error messages.
var (
	registry = map[string]func() Kernel{
		"coulomb":   func() Kernel { return Coulomb{} },
		"coulomb3":  func() Kernel { return CoulombCubed{} },
		"exp":       func() Kernel { return Exponential{} },
		"gaussian":  func() Kernel { return Gaussian{Scale: 0.1} },
		"matern32":  func() Kernel { return Matern32{Length: 1} },
		"matern52":  func() Kernel { return Matern52{Length: 1} },
		"imq":       func() Kernel { return InverseMultiquadric{C: 1} },
		"thinplate": func() Kernel { return ThinPlate{} },
	}
	registryNames = []string{"coulomb", "coulomb3", "exp", "gaussian",
		"matern32", "matern52", "imq", "thinplate"}
)

// Names returns the registered kernel names in presentation order. Command
// flag help derives its kernel list from this, so the binaries stay in sync
// with the registry.
func Names() []string { return append([]string(nil), registryNames...) }

// Named returns the kernel for a harness name. It returns false for unknown
// names.
func Named(name string) (Kernel, bool) {
	mk, ok := registry[name]
	if !ok {
		return nil, false
	}
	return mk(), true
}

// ByName is the error-reporting form of Named shared by the command-line
// frontends: unknown names produce an error that lists every valid kernel.
func ByName(name string) (Kernel, error) {
	k, ok := Named(name)
	if !ok {
		return nil, fmt.Errorf("kernel: unknown kernel %q (valid: %s)",
			name, strings.Join(registryNames, ", "))
	}
	return k, nil
}

// Assemble fills dst (reshaped to len(rows) x len(cols)) with the kernel
// block K(X[rows], Y[cols]). rows and cols index into x and y respectively.
// dst is returned for convenience. Radial kernels take the fused
// distance/evaluation fast paths; general Pairwise kernels use EvalPair.
func Assemble(dst *mat.Dense, pk Pairwise, x *pointset.Points, rows []int, y *pointset.Points, cols []int) *mat.Dense {
	m, n := len(rows), len(cols)
	dst.Reshape(m, n)
	if ba, ok := pk.(BlockAssembler); ok && ba.AssembleBlock(dst, x, rows, y, cols) {
		return dst
	}
	k, radial := pk.(Kernel)
	if !radial {
		assemblePair(dst, pk, x, rows, y, cols)
		return dst
	}
	assembleFused(dst, k, x, rows, y, cols)
	return dst
}

// AssembleSeed is Assemble forced onto the per-entry evaluation paths
// (dimension-specialized EvalDist loops for radial kernels, EvalPair
// otherwise) — the pre-fusion construction path, kept callable as the
// reference of the fused-vs-seed equivalence suite.
func AssembleSeed(dst *mat.Dense, pk Pairwise, x *pointset.Points, rows []int, y *pointset.Points, cols []int) *mat.Dense {
	m, n := len(rows), len(cols)
	dst.Reshape(m, n)
	if ba, ok := pk.(BlockAssembler); ok && ba.AssembleBlock(dst, x, rows, y, cols) {
		return dst
	}
	k, radial := pk.(Kernel)
	if !radial {
		assemblePair(dst, pk, x, rows, y, cols)
		return dst
	}
	switch x.Dim {
	case 2:
		assemble2(dst, k, x, rows, y, cols)
	case 3:
		assemble3(dst, k, x, rows, y, cols)
	default:
		assembleGeneric(dst, k, x, rows, y, cols)
	}
	return dst
}

// NewBlock allocates and assembles the kernel block K(X[rows], Y[cols]).
func NewBlock(k Pairwise, x *pointset.Points, rows []int, y *pointset.Points, cols []int) *mat.Dense {
	return Assemble(mat.NewDense(0, 0), k, x, rows, y, cols)
}

// NewBlockSeed is NewBlock on the per-entry AssembleSeed path.
func NewBlockSeed(k Pairwise, x *pointset.Points, rows []int, y *pointset.Points, cols []int) *mat.Dense {
	return AssembleSeed(mat.NewDense(0, 0), k, x, rows, y, cols)
}

// assembleFused fills the tile through the fused chunk machinery: one
// distance pass (distChunk, mirroring the per-dimension accumulation of the
// assemble2/assemble3/assembleGeneric loops) and one devirtualized
// evaluation pass (evalChunk) per 64-entry panel of each row, writing
// straight into the destination row. Per the bitwise contracts on those two
// primitives, every entry is bit-identical to the per-entry seed path — only
// the interface-call count and the cache behavior change.
func assembleFused(dst *mat.Dense, k Kernel, x *pointset.Points, rows []int, y *pointset.Points, cols []int) {
	d := x.Dim
	n := len(cols)
	// Nearfield tiles index whole leaf ranges, so cols is usually a
	// consecutive run; the sequential distance pass drops the per-entry
	// column gather and streams the coordinates in order (distChunkSeq is
	// bitwise-identical to distChunk on the same points).
	seq := n > 0
	for t, j := range cols {
		if j != cols[0]+t {
			seq = false
			break
		}
	}
	var r2 [fusedChunk]float64
	for a, i := range rows {
		xi := x.Coords[i*d : i*d+d]
		out := dst.Row(a)
		for b0 := 0; b0 < n; b0 += fusedChunk {
			b1 := min(b0+fusedChunk, n)
			ck := b1 - b0
			if seq {
				distChunkSeq(r2[:ck], xi, y, cols[0]+b0, d)
			} else {
				distChunk(r2[:ck], xi, y, cols[b0:b1], d)
			}
			evalChunk(k, out[b0:b1], r2[:ck])
		}
	}
}

// assemblePair is the generic path for non-radial kernels.
func assemblePair(dst *mat.Dense, k Pairwise, x *pointset.Points, rows []int, y *pointset.Points, cols []int) {
	d := x.Dim
	for a, i := range rows {
		xi := x.Coords[i*d : i*d+d]
		out := dst.Row(a)
		for b, j := range cols {
			out[b] = k.EvalPair(xi, y.Coords[j*d:j*d+d])
		}
	}
}

func assemble3(dst *mat.Dense, k Kernel, x *pointset.Points, rows []int, y *pointset.Points, cols []int) {
	for a, i := range rows {
		xi := x.Coords[i*3 : i*3+3]
		x0, x1, x2 := xi[0], xi[1], xi[2]
		out := dst.Row(a)
		for b, j := range cols {
			yj := y.Coords[j*3 : j*3+3]
			d0 := x0 - yj[0]
			d1 := x1 - yj[1]
			d2 := x2 - yj[2]
			out[b] = k.EvalDist(math.Sqrt(d0*d0 + d1*d1 + d2*d2))
		}
	}
}

func assemble2(dst *mat.Dense, k Kernel, x *pointset.Points, rows []int, y *pointset.Points, cols []int) {
	for a, i := range rows {
		xi := x.Coords[i*2 : i*2+2]
		x0, x1 := xi[0], xi[1]
		out := dst.Row(a)
		for b, j := range cols {
			yj := y.Coords[j*2 : j*2+2]
			d0 := x0 - yj[0]
			d1 := x1 - yj[1]
			out[b] = k.EvalDist(math.Sqrt(d0*d0 + d1*d1))
		}
	}
}

func assembleGeneric(dst *mat.Dense, k Kernel, x *pointset.Points, rows []int, y *pointset.Points, cols []int) {
	d := x.Dim
	for a, i := range rows {
		xi := x.Coords[i*d : i*d+d]
		out := dst.Row(a)
		for b, j := range cols {
			yj := y.Coords[j*d : j*d+d]
			s := 0.0
			for c, v := range xi {
				dd := v - yj[c]
				s += dd * dd
			}
			out[b] = k.EvalDist(math.Sqrt(s))
		}
	}
}

// ApplyBlock computes y[rows] += K(X[rows], X[cols]) * v[cols] directly,
// without materializing the block. y and v are full-length vectors indexed
// by the global point ordering; rows/cols index into x. This is the fully
// streaming alternative to assemble-then-multiply used by the direct
// (dense reference) product. It runs on the same fused chunk machinery as
// BlockVecAdd (per-chunk devirtualized evaluation, dot's 4-accumulator
// grouping per row), gathering v through the column index set.
func ApplyBlock(k Pairwise, x *pointset.Points, rows, cols []int, v, y []float64) {
	rk, radial := k.(Kernel)
	d := x.Dim
	L := len(cols)
	U := L &^ 3
	var r2buf, kbuf, vbuf [fusedChunk]float64
	for _, i := range rows {
		xi := x.Coords[i*d : i*d+d]
		var s0, s1, s2, s3 float64
		for b0 := 0; b0 < U; b0 += fusedChunk {
			b1 := min(b0+fusedChunk, U)
			cc := cols[b0:b1]
			kernelChunk(rk, k, radial, kbuf[:], r2buf[:], xi, x, cc, d)
			for t, j := range cc {
				vbuf[t] = v[j]
			}
			for t := 0; t+4 <= len(cc); t += 4 {
				s0 += kbuf[t] * vbuf[t]
				s1 += kbuf[t+1] * vbuf[t+1]
				s2 += kbuf[t+2] * vbuf[t+2]
				s3 += kbuf[t+3] * vbuf[t+3]
			}
		}
		s := (s0 + s1) + (s2 + s3)
		for b := U; b < L; b++ {
			s += evalOne(rk, k, radial, xi, x, cols[b], d) * v[cols[b]]
		}
		y[i] += s
	}
}

// RowApply computes one exact row of the kernel matrix-vector product:
// it returns Σ_j K(x_i, x_j) v[j] over all points j. Used by the 12-row
// relative-error estimator (paper §IV) and by tests. Like ApplyBlock it
// runs on the fused chunk machinery, with the column set being every point.
func RowApply(k Pairwise, x *pointset.Points, i int, v []float64) float64 {
	rk, radial := k.(Kernel)
	d := x.Dim
	n := x.Len()
	xi := x.Coords[i*d : i*d+d]
	U := n &^ 3
	var r2buf, kbuf [fusedChunk]float64
	var s0, s1, s2, s3 float64
	for b0 := 0; b0 < U; b0 += fusedChunk {
		b1 := min(b0+fusedChunk, U)
		ck := b1 - b0
		if radial {
			distChunkSeq(r2buf[:ck], xi, x, b0, d)
			evalChunk(rk, kbuf[:ck], r2buf[:ck])
		} else {
			for t := 0; t < ck; t++ {
				j := b0 + t
				kbuf[t] = k.EvalPair(xi, x.Coords[j*d:j*d+d])
			}
		}
		vv := v[b0:b1]
		for t := 0; t+4 <= ck; t += 4 {
			s0 += kbuf[t] * vv[t]
			s1 += kbuf[t+1] * vv[t+1]
			s2 += kbuf[t+2] * vv[t+2]
			s3 += kbuf[t+3] * vv[t+3]
		}
	}
	s := (s0 + s1) + (s2 + s3)
	for j := U; j < n; j++ {
		s += evalOne(rk, k, radial, xi, x, j, d) * v[j]
	}
	return s
}
