package core

import (
	"fmt"

	"h2ds/internal/mat"
)

// ApplyTranspose computes y = Âᵀ b in the caller's original point
// ordering. For symmetric kernels Âᵀ = Â and this is identical to Apply;
// for unsymmetric kernels the five sweeps run with the row/column roles
// exchanged: the upward sweep goes through U/R, couplings apply B_{j,i}
// transposed, and the downward/leaf sweeps go through V/W.
func (m *Matrix) ApplyTranspose(b []float64) []float64 {
	y := make([]float64, m.N)
	m.ApplyTransposeTo(y, b)
	return y
}

// ApplyTransposeTo computes y = Âᵀ b into y. y and b must both have length
// N; they may alias (see ApplyTo). Uses the internal workspace pool.
func (m *Matrix) ApplyTransposeTo(y, b []float64) {
	ws := m.getWorkspace()
	m.ApplyTransposeToWith(ws, y, b)
	m.putWorkspace(ws)
}

// ApplyBatch computes Y = Â B for a batch of k column vectors stored as an
// N-by-k matrix in the caller's original point ordering and returns the
// N-by-k result. See ApplyBatchTo.
func (m *Matrix) ApplyBatch(b *mat.Dense) *mat.Dense {
	if b.Rows != m.N {
		panic(fmt.Sprintf("core: applyBatch rows %d want %d", b.Rows, m.N))
	}
	y := mat.NewDense(m.N, b.Cols)
	m.ApplyBatchTo(y, b)
	return y
}

// ApplyBatchTo computes Y = Â B for k right-hand sides (the columns of the
// N-by-k matrix B) into Y, which is reshaped to N-by-k. Y and B may alias.
// The five sweeps run once with matrix-valued node states, so every
// coupling and nearfield block — in on-the-fly mode, every kernel tile
// assembly, the dominant cost — is visited once for the whole batch instead
// of once per column, and each stage is a small GEMM. This is the natural
// kernel for block iterative methods (multiple right-hand sides, paper
// §VI-B). Uses the internal workspace pool; its panels are retained and
// reused across calls.
func (m *Matrix) ApplyBatchTo(y, b *mat.Dense) {
	ws := m.getWorkspace()
	m.ApplyBatchToWith(ws, y, b)
	m.putWorkspace(ws)
}
