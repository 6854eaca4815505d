package core

import (
	"fmt"

	"h2ds/internal/mat"
	"h2ds/internal/par"
)

// Workspace holds every buffer a matvec needs, so repeated products — the
// iterative-solve workload the paper motivates the normal mode with (§VI-B)
// — touch the allocator only on the first call. It carves per-node q/g
// segments out of two flat slabs via prefix sums over the node ranks
// (contiguous by construction, one cache-friendly block per level), keeps
// the two N-length permutation buffers, and owns the per-worker scratch
// panels of the on-the-fly batch kernel.
//
// Concurrency contract: a Workspace may be used by ONE goroutine at a time.
// Concurrent callers either create one workspace each (NewWorkspace) or use
// the convenience entry points (ApplyTo, ApplyTranspose, ApplyBatchTo),
// which draw from an internal sync.Pool — concurrent requests then cost at
// most one workspace per in-flight call, reused across calls.
//
// Every product runs on the barrier-free scheduler (schedule.go) over the
// workspace's persistent par.Pool. The per-node kernels are bound to the
// workspace as method values at construction time and per-call parameters
// travel through workspace fields, so the steady-state matvec performs zero
// allocations per operation at any worker count.
type Workspace struct {
	m *Matrix

	// pool is the workspace's persistent parallel runtime. Workspaces are
	// checked out by one goroutine at a time (the pool's contract), so
	// concurrent applies each drive their own pool. A closed workspace
	// (nil pool) drains the scheduler serially on the caller.
	pool *par.Pool

	// Permutation buffers (length N).
	bp, yp []float64

	// The two generator sides with their coefficient slabs. in and out
	// point at them for the current apply: q is read from in's slab and g
	// written to out's.
	row, col side
	in, out  *side

	// transpose selects B_{j,i}ᵀ instead of B_{i,j} in the block kernels.
	transpose bool

	// Per-worker scratch panels for the on-the-fly batch kernel (grown on
	// demand when the configured worker count rises).
	scratch []*mat.Dense

	// ctr holds per-worker instrumentation, padded to ctrStride int64s per
	// worker to keep workers off each other's cache lines (layout below).
	// Flushed into the matrix's atomics once per apply.
	ctr []int64

	// ---- per-call state consumed by the kernels ----
	curB, curY []float64 // permuted input/output vectors

	// Sharded-apply coupling overrides (nil on a plain apply): a scatter
	// computes g only for nodes with only[id] set; a gather copies the
	// received partial parts[id] instead of computing it.
	only  []bool
	parts [][]float64

	// The vector and batch kernel sets and the set the scheduler is
	// currently running.
	vec, batch, cur sweep

	// Scheduler state: the worker loop method value and the resettable
	// task-queue state.
	schedRunFn func(slot int)
	sched      scheduler

	// ---- batch (multi-RHS) state ----
	k               int // current batch width
	bpB, ypB        *mat.Dense
	viewIn, viewOut []*mat.Dense // per-worker leaf-range views
}

// side is one generator side of the representation: the row side (U, R,
// row ranks and skeletons) or the column side (V, W, column ranks and
// skeletons, aliasing the row side's generators when bases are shared),
// plus the workspace's coefficient slabs for it. Apply and ApplyBatch read
// q on the column side and write g on the row side; ApplyTranspose swaps
// the pair, which is the whole difference between the two products.
type side struct {
	basis, trans []*mat.Dense
	ranks        []int
	skel         [][]int

	// off holds prefix sums over ranks: node i's segment is
	// slab[off[i]:off[i+1]], and its batch panel nodeB[i] points into
	// slabB.
	off   []int
	slab  []float64
	slabB []float64
	nodeB []*mat.Dense
}

// seg returns node id's segment of the vector slab.
func (s *side) seg(id int) []float64 { return s.slab[s.off[id]:s.off[id+1]] }

// sweep is one apply variant's four per-node kernels. up, coup and down
// take a node id; leaf takes an index into Tree.Leaves.
type sweep struct{ up, coup, down, leaf func(w, i int) }

// rankOffsets returns the prefix sums over ranks.
func rankOffsets(ranks []int) []int {
	off := make([]int, len(ranks)+1)
	for i, r := range ranks {
		off[i+1] = off[i] + r
	}
	return off
}

// NewWorkspace allocates a workspace sized for m's tree and ranks. Reuse it
// across products from a single goroutine; for ad-hoc calls prefer ApplyTo,
// which pools workspaces internally.
func (m *Matrix) NewWorkspace() *Workspace {
	ws := &Workspace{m: m}
	ws.bp = make([]float64, m.N)
	ws.yp = make([]float64, m.N)
	ws.row = side{basis: m.u, trans: m.trans, ranks: m.ranks, skel: m.skel}
	ws.row.off = rankOffsets(m.ranks)
	ws.col = ws.row
	if !m.sharedBasis {
		ws.col = side{basis: m.v, trans: m.wTrans, ranks: m.colRanks, skel: m.colSkel}
		ws.col.off = rankOffsets(m.colRanks)
	}
	ws.row.slab = make([]float64, ws.row.off[len(m.ranks)])
	ws.col.slab = make([]float64, ws.col.off[len(m.ranks)])
	workers := par.Resolve(m.Cfg.Workers)
	ws.pool = par.NewPool(workers)
	ws.growScratch(workers)

	ws.vec = sweep{ws.upNode, ws.coupNode, ws.downNode, ws.leafNode}
	ws.batch = sweep{ws.upNodeB, ws.coupNodeB, ws.downNodeB, ws.leafNodeB}
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

// bind prepares ws for one product of m: it checks the workspace and
// orients the sweeps, reading q on the column side and writing g on the
// row side, or the reverse for the transpose.
func (ws *Workspace) bind(m *Matrix, transpose bool) {
	ws.check(m, par.Resolve(m.Cfg.Workers))
	ws.transpose = transpose
	ws.in, ws.out = &ws.col, &ws.row
	if transpose {
		ws.in, ws.out = &ws.row, &ws.col
	}
}

// bindVec binds a vector product on permuted input bp and output yp (nil
// for a scatter, which writes no output).
func (ws *Workspace) bindVec(m *Matrix, bp, yp []float64, transpose bool) {
	ws.bind(m, transpose)
	ws.curB, ws.curY = bp, yp
}

// bindBatch binds a batch product: the batch buffers are shaped for B's
// width and B's rows are permuted in.
func (ws *Workspace) bindBatch(m *Matrix, B *mat.Dense) {
	ws.bind(m, false)
	ws.ensureBatch(B.Cols)
	for row, orig := range m.Tree.Perm {
		copy(ws.bpB.Row(row), B.Row(orig))
	}
}

// unbind drops the per-call references so the workspace does not retain
// the caller's vectors or shard partials.
func (ws *Workspace) unbind() {
	ws.curB, ws.curY = nil, nil
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

// BatchWidth returns the multi-RHS width the batch buffers are currently
// shaped for: the k of the most recent ApplyBatchToWith call, or 0 before
// the first one. Serving layers read it to report the effective coalescing
// width a reused workspace is operating at.
func (ws *Workspace) BatchWidth() int { return ws.k }

// Bytes returns the deterministic payload size of the vector-path buffers
// (permute buffers plus both rank slabs). Scratch tiles are accounted
// separately (MemoryStats.ScratchPerWorker); batch slabs grow with the
// batch width and are excluded.
func (ws *Workspace) Bytes() int64 {
	return int64(len(ws.bp)+len(ws.yp)+len(ws.row.slab)+len(ws.col.slab)) * 8
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

// workspaceBytes is the deterministic size of one vector-path workspace,
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
// workspace's permutation buffers).
func (m *Matrix) ApplyToWith(ws *Workspace, y, b []float64) {
	if len(y) != m.N || len(b) != m.N {
		panic(fmt.Sprintf("core: apply length mismatch y=%d b=%d n=%d", len(y), len(b), m.N))
	}
	m.Tree.PermuteVec(ws.bp, b)
	m.applyPermutedWith(ws, ws.yp, ws.bp, false)
	m.Tree.UnpermuteVec(y, ws.yp)
}

// ApplyTransposeToWith computes y = Âᵀ b into y using the caller-owned
// workspace. y and b must both have length N; they may alias.
func (m *Matrix) ApplyTransposeToWith(ws *Workspace, y, b []float64) {
	if len(y) != m.N || len(b) != m.N {
		panic(fmt.Sprintf("core: applyTranspose length mismatch y=%d b=%d n=%d", len(y), len(b), m.N))
	}
	m.Tree.PermuteVec(ws.bp, b)
	m.applyPermutedWith(ws, ws.yp, ws.bp, true)
	m.Tree.UnpermuteVec(y, ws.yp)
}

// applyPermutedWith runs the five sweeps of Algorithm 2 on permuted vectors
// with all state drawn from ws; the transpose runs the same kernels with
// the generator sides swapped. yp and bp must not alias (stage 5 reads
// bp's nearfield neighbours while writing yp).
func (m *Matrix) applyPermutedWith(ws *Workspace, yp, bp []float64, transpose bool) {
	ws.bindVec(m, bp, yp, transpose)
	ws.runScheduled(ws.vec)
	ws.unbind()
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

// upNode is stages 1+2: leaves project their input slice through the in
// side's basis; internal nodes combine children through its stacked
// transfer blocks.
func (ws *Workspace) upNode(_, id int) {
	in := ws.in
	nd := &ws.m.Tree.Nodes[id]
	qi := in.seg(id)
	zero(qi)
	if len(qi) == 0 {
		return
	}
	if nd.IsLeaf {
		mat.MulTVecAdd(qi, in.basis[id], ws.curB[nd.Start:nd.End])
		return
	}
	off := 0
	for _, c := range nd.Children {
		rc := in.ranks[c]
		if rc > 0 {
			mat.MulTVecAddRange(qi, in.trans[id], off, off+rc, in.seg(c))
		}
		off += rc
	}
}

// coupNode is stage 3: g_i = Σ_{j ∈ IL(i)} B_{i,j} q_j (B_{j,i}ᵀ q_j on the
// transpose). The interaction lists are symmetric as sets, so i's own list
// covers exactly the blocks that write into i either way.
func (ws *Workspace) coupNode(w, id int) {
	gi := ws.out.seg(id)
	if ws.coupFixed(id, gi) {
		return
	}
	zero(gi)
	if len(gi) == 0 {
		return
	}
	for _, j := range ws.m.Tree.Nodes[id].Interaction {
		if ws.in.ranks[j] > 0 {
			ws.blockVec(w, false, gi, id, j, ws.in.seg(j))
		}
	}
}

// downNode is stage 4: g_c += R_c g_i through the out side's transfer
// blocks, parents writing only their own children's segments.
func (ws *Workspace) downNode(_, id int) {
	out := ws.out
	nd := &ws.m.Tree.Nodes[id]
	if nd.IsLeaf || out.ranks[id] == 0 {
		return
	}
	gi := out.seg(id)
	off := 0
	for _, c := range nd.Children {
		rc := out.ranks[c]
		if rc > 0 {
			mat.MulVecAddRange(out.seg(c), out.trans[id], off, off+rc, gi)
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
	yi := ws.curY[nd.Start:nd.End]
	zero(yi)
	if ws.out.ranks[id] > 0 {
		mat.MulVecAdd(yi, ws.out.basis[id], ws.out.seg(id))
	}
	for _, j := range nd.Near {
		nj := &m.Tree.Nodes[j]
		ws.blockVec(w, true, yi, id, j, ws.curB[nj.Start:nj.End])
	}
}

// ---- batched multi-RHS path ----

// ensureBatch sizes the batch buffers for width k: the N-by-k permutation
// buffers, one slab per side, and per-node matrix headers re-pointed into
// the slabs. Everything is reused across calls; buffers only grow.
func (ws *Workspace) ensureBatch(k int) {
	m := ws.m
	nNodes := len(m.Tree.Nodes)
	if ws.bpB == nil {
		ws.bpB = mat.NewDense(0, 0)
		ws.ypB = mat.NewDense(0, 0)
	}
	for len(ws.viewIn) < len(ws.scratch) {
		ws.viewIn = append(ws.viewIn, &mat.Dense{})
		ws.viewOut = append(ws.viewOut, &mat.Dense{})
	}
	ws.bpB.Reshape(m.N, k)
	ws.ypB.Reshape(m.N, k)
	for _, s := range []*side{&ws.row, &ws.col} {
		if s.nodeB == nil {
			s.nodeB = make([]*mat.Dense, nNodes)
			for i := range s.nodeB {
				s.nodeB[i] = &mat.Dense{}
			}
		}
		if need := s.off[nNodes] * k; cap(s.slabB) < need {
			s.slabB = make([]float64, need)
		}
		for id, p := range s.nodeB {
			p.Rows, p.Cols = s.off[id+1]-s.off[id], k
			p.Data = s.slabB[s.off[id]*k : s.off[id+1]*k]
		}
	}
	ws.k = k
}

// rowsView points header v at rows [r0, r1) of the row-major matrix a
// (shared backing, no copy).
func rowsView(v, a *mat.Dense, r0, r1 int) *mat.Dense {
	v.Rows, v.Cols = r1-r0, a.Cols
	v.Data = a.Data[r0*a.Cols : r1*a.Cols]
	return v
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
	ws.bindBatch(m, B)
	ws.runScheduled(ws.batch)
	ws.unbind()
	ws.unpermuteBatch(Y)
}

// unpermuteBatch copies the batch result rows into Y in original ordering.
func (ws *Workspace) unpermuteBatch(Y *mat.Dense) {
	Y.Reshape(ws.m.N, ws.k)
	for row, orig := range ws.m.Tree.Perm {
		copy(Y.Row(orig), ws.ypB.Row(row))
	}
}

// upNodeB is the batched upward sweep: q_i = V_iᵀ B_i for leaves,
// q_i = Σ_c W_cᵀ q_c above.
func (ws *Workspace) upNodeB(w, id int) {
	in := ws.in
	nd := &ws.m.Tree.Nodes[id]
	qi := in.nodeB[id]
	zero(qi.Data)
	if qi.Rows == 0 {
		return
	}
	if nd.IsLeaf {
		mat.MulTAddTo(qi, in.basis[id], rowsView(ws.viewIn[w], ws.bpB, nd.Start, nd.End))
		return
	}
	off := 0
	for _, c := range nd.Children {
		rc := in.ranks[c]
		if rc > 0 {
			mat.MulTRangeAddTo(qi, in.trans[id], off, off+rc, in.nodeB[c])
		}
		off += rc
	}
}

// coupNodeB is the batched coupling sweep: one stored-block application or
// tile evaluation per block for all k columns.
func (ws *Workspace) coupNodeB(w, id int) {
	gi := ws.out.nodeB[id]
	if ws.coupFixed(id, gi.Data) {
		return
	}
	zero(gi.Data)
	if gi.Rows == 0 {
		return
	}
	for _, j := range ws.m.Tree.Nodes[id].Interaction {
		if ws.in.ranks[j] > 0 {
			ws.blockBatch(w, false, gi, id, j, ws.in.nodeB[j])
		}
	}
}

// downNodeB is the batched downward sweep: g_c += R_c g_i.
func (ws *Workspace) downNodeB(_, id int) {
	out := ws.out
	nd := &ws.m.Tree.Nodes[id]
	if nd.IsLeaf || out.ranks[id] == 0 {
		return
	}
	gi := out.nodeB[id]
	off := 0
	for _, c := range nd.Children {
		rc := out.ranks[c]
		if rc > 0 {
			mat.MulRangeAddTo(out.nodeB[c], out.trans[id], off, off+rc, gi)
		}
		off += rc
	}
}

// leafNodeB is the batched leaf sweep.
func (ws *Workspace) leafNodeB(w, k int) {
	m := ws.m
	id := m.Tree.Leaves[k]
	nd := &m.Tree.Nodes[id]
	yi := rowsView(ws.viewOut[w], ws.ypB, nd.Start, nd.End)
	zero(yi.Data)
	if ws.out.ranks[id] > 0 {
		mat.MulAddTo(yi, ws.out.basis[id], ws.out.nodeB[id])
	}
	for _, j := range nd.Near {
		nj := &m.Tree.Nodes[j]
		ws.blockBatch(w, true, yi, id, j, rowsView(ws.viewIn[w], ws.bpB, nj.Start, nj.End))
	}
}
