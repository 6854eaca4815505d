package core

import (
	"fmt"

	"h2ds/internal/mat"
	"h2ds/internal/par"
)

// Workspace holds every buffer a matvec needs, so repeated products — the
// iterative-solve workload the paper motivates the normal mode with (§VI-B)
// — touch the allocator only on the first call. Every product runs the same
// four node kernels over k-column panels; a vector product is the k = 1
// case. The workspace carves per-node q/g panels out of one flat slab per
// generator side via prefix sums over the node ranks (contiguous by
// construction, one cache-friendly block per level), keeps one N-by-k
// permutation pair, and owns the per-worker scratch panels of the
// on-the-fly kernel.
//
// Concurrency contract: a Workspace may be used by ONE goroutine at a time.
// Concurrent callers either create one workspace each (NewWorkspace) or use
// the convenience entry points (ApplyTo, ApplyTranspose, ApplyBatchTo),
// which draw from an internal sync.Pool — concurrent requests then cost at
// most one workspace per in-flight call, reused across calls.
//
// Every product runs on the barrier-free scheduler (schedule.go) over the
// workspace's persistent par.Pool. Per-call parameters travel through
// workspace fields and the panels are reshaped only when the width changes,
// so the steady-state matvec performs zero allocations per operation at any
// worker count.
type Workspace struct {
	m *Matrix

	// pool is the workspace's persistent parallel runtime. Workspaces are
	// checked out by one goroutine at a time (the pool's contract), so
	// concurrent applies each drive their own pool. A closed workspace
	// (nil pool) drains the scheduler serially on the caller.
	pool *par.Pool

	// The permutation pair: input and output in tree order, N-by-k for the
	// current width k.
	bp, yp mat.Dense

	// k is the panel width the buffers are shaped for (0 before the first
	// product).
	k int

	// The two generator sides with their coefficient panels. in and out
	// point at them for the current apply: q is read from in's panels and
	// g written to out's.
	row, col side
	in, out  *side

	// transpose selects B_{j,i}ᵀ instead of B_{i,j} in the block kernels;
	// the transpose is a vector (k = 1) product.
	transpose bool

	// Per-worker scratch panels for the on-the-fly kernel (grown on demand
	// when the configured worker count rises).
	scratch []*mat.Dense

	// ctr holds per-worker instrumentation, padded to ctrStride int64s per
	// worker to keep workers off each other's cache lines (layout below).
	// Flushed into the matrix's atomics once per apply.
	ctr []int64

	// Sharded-apply overrides (nil on a plain apply): a scatter computes g
	// only for nodes with only[id] set and stops after the coupling sweep;
	// a gather copies the received partial parts[id] instead of computing
	// it.
	only  []bool
	parts [][]float64

	// Scheduler state: the worker loop method value and the resettable
	// task-queue state.
	schedRunFn func(slot int)
	sched      scheduler
}

// side is one generator side of the representation: the row side (U, R,
// row ranks and skeletons) or the column side (V, W, column ranks and
// skeletons, aliasing the row side's generators when bases are shared),
// plus the workspace's coefficient panels for it. Apply and ApplyBatch read
// q on the column side and write g on the row side; ApplyTranspose swaps
// the pair, which is the whole difference between the two products.
type side struct {
	basis, trans []*mat.Dense
	ranks        []int
	skel         [][]int

	// off holds prefix sums over ranks: node i's panel is rows
	// [off[i], off[i+1]) of the side's rank-by-k coefficient block, stored
	// row-major in slab.
	off   []int
	slab  []float64
	panel []mat.Dense
}

// rankOffsets returns the prefix sums over ranks.
func rankOffsets(ranks []int) []int {
	off := make([]int, len(ranks)+1)
	for i, r := range ranks {
		off[i+1] = off[i] + r
	}
	return off
}

// NewWorkspace allocates a workspace sized for m's tree and ranks at width
// 1. Reuse it across products from a single goroutine; for ad-hoc calls
// prefer ApplyTo, which pools workspaces internally.
func (m *Matrix) NewWorkspace() *Workspace {
	ws := &Workspace{m: m}
	ws.bp.Data = make([]float64, m.N)
	ws.yp.Data = make([]float64, m.N)
	ws.row = side{basis: m.u, trans: m.trans, ranks: m.ranks, skel: m.skel}
	ws.row.off = rankOffsets(m.ranks)
	ws.col = ws.row
	if !m.sharedBasis {
		ws.col = side{basis: m.v, trans: m.wTrans, ranks: m.colRanks, skel: m.colSkel}
		ws.col.off = rankOffsets(m.colRanks)
	}
	nNodes := len(m.Tree.Nodes)
	for _, s := range []*side{&ws.row, &ws.col} {
		s.slab = make([]float64, s.off[nNodes])
		s.panel = make([]mat.Dense, nNodes)
	}
	workers := par.Resolve(m.Cfg.Workers)
	ws.pool = par.NewPool(workers)
	ws.growScratch(workers)
	ws.schedRunFn = ws.runSched
	return ws
}

// Per-worker counter layout within Workspace.ctr: on-the-fly evaluation
// nanoseconds, hybrid store hits and misses, and per-stage task
// nanoseconds.
const (
	ctrOtfNS  = 0
	ctrHit    = 1
	ctrMiss   = 2
	ctrUpNS   = 3
	ctrCoupNS = 4
	ctrDownNS = 5
	ctrLeafNS = 6
	ctrStride = 8 // one 64-byte cache line per worker
)

// growScratch ensures at least n per-worker scratch panels and counter
// lines exist.
func (ws *Workspace) growScratch(n int) {
	for len(ws.scratch) < n {
		ws.scratch = append(ws.scratch, mat.NewDense(0, 0))
	}
	if len(ws.ctr) < n*ctrStride {
		ws.ctr = append(ws.ctr, make([]int64, n*ctrStride-len(ws.ctr))...)
	}
}

// flushCounters folds the per-worker counters into the matrix's cumulative
// sweep stats and zeroes them for the next apply. Each total lands in its
// destination with a single atomic add, so overlapping applies on distinct
// workspaces of one matrix interleave whole-apply contributions, never
// partial ones.
func (ws *Workspace) flushCounters() {
	var ns, hit, miss, up, coup, down, leaf int64
	for base := 0; base < len(ws.ctr); base += ctrStride {
		ns += ws.ctr[base+ctrOtfNS]
		hit += ws.ctr[base+ctrHit]
		miss += ws.ctr[base+ctrMiss]
		up += ws.ctr[base+ctrUpNS]
		coup += ws.ctr[base+ctrCoupNS]
		down += ws.ctr[base+ctrDownNS]
		leaf += ws.ctr[base+ctrLeafNS]
		for s := ctrOtfNS; s <= ctrLeafNS; s++ {
			ws.ctr[base+s] = 0
		}
	}
	if ns != 0 {
		ws.m.sweeps.otfAssembly.Add(ns)
	}
	if hit != 0 {
		ws.m.sweeps.hybridHits.Add(hit)
	}
	if miss != 0 {
		ws.m.sweeps.hybridMisses.Add(miss)
	}
	ws.m.sweeps.recordStages(up, coup, down, leaf)
}

// check validates the workspace against the matrix it is about to serve and
// adapts to a changed worker count (resizing the pool if the resolved count
// moved, e.g. under a GOMAXPROCS change).
func (ws *Workspace) check(m *Matrix, workers int) {
	if ws.m != m {
		panic("core: workspace used with a different Matrix than it was created for")
	}
	if ws.pool != nil && ws.pool.Workers() != workers {
		ws.pool.Close()
		ws.pool = par.NewPool(workers)
	}
	ws.growScratch(workers)
}

// bind prepares ws for one product of m at width k: it checks the
// workspace, shapes the panels and orients the sweeps, reading q on the
// column side and writing g on the row side, or the reverse for the
// transpose.
func (ws *Workspace) bind(m *Matrix, k int, transpose bool) {
	ws.check(m, par.Resolve(m.Cfg.Workers))
	ws.shape(k)
	ws.transpose = transpose
	ws.in, ws.out = &ws.col, &ws.row
	if transpose {
		ws.in, ws.out = &ws.row, &ws.col
	}
}

// shape sizes the permutation pair and both sides' panels for width k,
// re-pointing the per-node panel headers into the slabs. Buffers only grow,
// and nothing is touched while the width stays the same.
func (ws *Workspace) shape(k int) {
	n := ws.m.N
	if k == ws.k && ws.bp.Rows == n {
		return
	}
	ws.bp.Reshape(n, k)
	ws.yp.Reshape(n, k)
	for _, s := range []*side{&ws.row, &ws.col} {
		if need := s.off[len(s.panel)] * k; cap(s.slab) < need {
			s.slab = make([]float64, need)
		}
		for id := range s.panel {
			p := &s.panel[id]
			p.Rows, p.Cols = s.off[id+1]-s.off[id], k
			p.Data = s.slab[s.off[id]*k : s.off[id+1]*k]
		}
	}
	ws.k = k
}

// run executes the bound product and drops the shard overrides so the
// workspace does not retain the caller's partials.
func (ws *Workspace) run() {
	ws.runScheduled()
	ws.only, ws.parts = nil, nil
}

// Close releases the workspace's persistent worker goroutines. It is safe
// to keep using the workspace afterwards (the scheduler then drains on the
// calling goroutine); unclosed workspaces release their goroutines via a
// finalizer when garbage-collected, so Close is an optimization for
// deterministic teardown, not a correctness requirement.
func (ws *Workspace) Close() {
	if ws.pool != nil {
		ws.pool.Close()
		ws.pool = nil
	}
}

// BatchWidth returns the panel width the buffers are currently shaped for:
// the k of the most recent product (1 for a vector product), or 0 before
// the first one. Serving layers read it to report the effective coalescing
// width a reused workspace is operating at.
func (ws *Workspace) BatchWidth() int { return ws.k }

// Bytes returns the deterministic payload size of the buffers at width 1
// (permutation pair plus both coefficient slabs). Scratch tiles are
// accounted separately (MemoryStats.ScratchPerWorker); a k-column product
// grows the buffers k-fold and is excluded.
func (ws *Workspace) Bytes() int64 {
	nNodes := len(ws.row.panel)
	return int64(2*ws.m.N+ws.row.off[nNodes]+ws.col.off[nNodes]) * 8
}

// getWorkspace draws a workspace from the matrix's pool, creating one on
// first use.
func (m *Matrix) getWorkspace() *Workspace {
	if ws, ok := m.wsPool.Get().(*Workspace); ok {
		return ws
	}
	return m.NewWorkspace()
}

// putWorkspace returns a workspace to the pool.
func (m *Matrix) putWorkspace(ws *Workspace) { m.wsPool.Put(ws) }

// workspaceBytes is the deterministic size of one width-1 workspace,
// computed from the representation shape without allocating one.
func (m *Matrix) workspaceBytes() int64 {
	var rows, cols int
	for i := range m.Tree.Nodes {
		rows += m.ranks[i]
		cols += m.colRank(i)
	}
	return int64(2*m.N+rows+cols) * 8
}

// ApplyToWith computes y = Â b into y (original point ordering) using the
// caller-owned workspace: zero allocations in steady state. y and b must
// both have length N; they may alias (the product round-trips through the
// workspace's permutation pair).
func (m *Matrix) ApplyToWith(ws *Workspace, y, b []float64) {
	if len(y) != m.N || len(b) != m.N {
		panic(fmt.Sprintf("core: apply length mismatch y=%d b=%d n=%d", len(y), len(b), m.N))
	}
	m.applyVec(ws, y, b, false)
}

// ApplyTransposeToWith computes y = Âᵀ b into y using the caller-owned
// workspace. y and b must both have length N; they may alias.
func (m *Matrix) ApplyTransposeToWith(ws *Workspace, y, b []float64) {
	if len(y) != m.N || len(b) != m.N {
		panic(fmt.Sprintf("core: applyTranspose length mismatch y=%d b=%d n=%d", len(y), len(b), m.N))
	}
	m.applyVec(ws, y, b, true)
}

// applyVec runs the five sweeps of Algorithm 2 at width 1: b is permuted
// into the workspace's N-by-1 input panel and the output panel is
// unpermuted into y. The transpose runs the same kernels with the generator
// sides swapped.
func (m *Matrix) applyVec(ws *Workspace, y, b []float64, transpose bool) {
	ws.bind(m, 1, transpose)
	m.Tree.PermuteVec(ws.bp.Data, b)
	ws.run()
	m.Tree.UnpermuteVec(y, ws.yp.Data)
}

// ApplyBatchToWith computes Y = Â B for k right-hand sides stored as the
// columns of the N-by-k matrix B, using the caller-owned workspace. Y is
// reshaped to N-by-k; Y and B may alias. The five sweeps run once with
// matrix-valued node states, so every coupling and nearfield block — in
// on-the-fly mode, every tile assembly — is visited once for the whole
// batch instead of once per column, and each stage is a small blocked GEMM.
func (m *Matrix) ApplyBatchToWith(ws *Workspace, Y, B *mat.Dense) {
	if B.Rows != m.N {
		panic(fmt.Sprintf("core: applyBatch rows %d want %d", B.Rows, m.N))
	}
	ws.bind(m, B.Cols, false)
	for row, orig := range m.Tree.Perm {
		copy(ws.bp.Row(row), B.Row(orig))
	}
	ws.run()
	ws.unpermuteBatch(Y)
}

// unpermuteBatch copies the output panel's rows into Y in original
// ordering.
func (ws *Workspace) unpermuteBatch(Y *mat.Dense) {
	Y.Reshape(ws.m.N, ws.k)
	for row, orig := range ws.m.Tree.Perm {
		copy(Y.Row(orig), ws.yp.Row(row))
	}
}

// rows returns a header over rows [r0, r1) of the row-major matrix a
// (shared backing, no copy). The kernels keep it on the stack: no product
// retains its operands.
func rows(a *mat.Dense, r0, r1 int) mat.Dense {
	return mat.Dense{Rows: r1 - r0, Cols: a.Cols, Data: a.Data[r0*a.Cols : r1*a.Cols]}
}

// zero clears a segment in place.
func zero(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// coupFixed applies the sharded-apply overrides to node id's coupling
// result g. It reports true when the coupling kernel must not compute g:
// the node lies outside a scatter's node set, or a gather received its
// partial, which is copied into g.
func (ws *Workspace) coupFixed(id int, g []float64) bool {
	if ws.only != nil && !ws.only[id] {
		return true
	}
	if ws.parts != nil && ws.parts[id] != nil {
		copy(g, ws.parts[id])
		return true
	}
	return false
}

// upNode is stages 1+2: leaves project their input rows through the in
// side's basis; internal nodes combine children through its stacked
// transfer blocks.
func (ws *Workspace) upNode(_, id int) {
	in := ws.in
	nd := &ws.m.Tree.Nodes[id]
	qi := &in.panel[id]
	zero(qi.Data)
	if qi.Rows == 0 {
		return
	}
	if nd.IsLeaf {
		bi := rows(&ws.bp, nd.Start, nd.End)
		mat.MulTAddTo(qi, in.basis[id], &bi)
		return
	}
	off := 0
	for _, c := range nd.Children {
		rc := in.ranks[c]
		if rc > 0 {
			mat.MulTRangeAddTo(qi, in.trans[id], off, off+rc, &in.panel[c])
		}
		off += rc
	}
}

// coupNode is stage 3: g_i = Σ_{j ∈ IL(i)} B_{i,j} q_j (B_{j,i}ᵀ q_j on the
// transpose), one stored-block application or tile evaluation per block for
// all k columns. The interaction lists are symmetric as sets, so i's own
// list covers exactly the blocks that write into i either way.
func (ws *Workspace) coupNode(w, id int) {
	gi := &ws.out.panel[id]
	if ws.coupFixed(id, gi.Data) {
		return
	}
	zero(gi.Data)
	if gi.Rows == 0 {
		return
	}
	for _, j := range ws.m.Tree.Nodes[id].Interaction {
		if ws.in.ranks[j] > 0 {
			ws.block(w, false, gi, id, j, &ws.in.panel[j])
		}
	}
}

// downNode is stage 4: g_c += R_c g_i through the out side's transfer
// blocks, parents writing only their own children's panels.
func (ws *Workspace) downNode(_, id int) {
	out := ws.out
	nd := &ws.m.Tree.Nodes[id]
	if nd.IsLeaf || out.ranks[id] == 0 {
		return
	}
	gi := &out.panel[id]
	off := 0
	for _, c := range nd.Children {
		rc := out.ranks[c]
		if rc > 0 {
			mat.MulRangeAddTo(&out.panel[c], out.trans[id], off, off+rc, gi)
		}
		off += rc
	}
}

// leafNode is stage 5: expand the farfield result through the out side's
// leaf basis and add the dense nearfield interactions.
func (ws *Workspace) leafNode(w, k int) {
	m := ws.m
	id := m.Tree.Leaves[k]
	nd := &m.Tree.Nodes[id]
	yi := rows(&ws.yp, nd.Start, nd.End)
	zero(yi.Data)
	if ws.out.ranks[id] > 0 {
		mat.MulAddTo(&yi, ws.out.basis[id], &ws.out.panel[id])
	}
	for _, j := range nd.Near {
		nj := &m.Tree.Nodes[j]
		bj := rows(&ws.bp, nj.Start, nj.End)
		ws.block(w, true, &yi, id, j, &bj)
	}
}
