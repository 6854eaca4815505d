package core

import (
	"runtime"
	"sync/atomic"

	"h2ds/internal/tree"
)

// Barrier-free sweep scheduling: the one driver of every product.
//
// Algorithm 2 reads as five level-synchronous sweeps, but run that way every
// tree level is a fork/barrier on the worker pool, so workers idle at each
// barrier and starve near the root where levels hold fewer nodes than
// workers. The scheduler replaces the barriers with a dependency-driven
// task graph: one task per (node, stage), released the moment its inputs are
// final. Upward tasks release their parent as soon as the last child lands,
// coupling tasks fire as soon as their interaction partners' upward partials
// exist (long before the full upward sweep finishes), and leaf tasks — which
// carry the nearfield block rows — interleave with everything else, filling
// the idle time the barriers used to burn.
//
// Bitwise contract: every output slot (a node's q panel, g panel, or a
// leaf's y rows) is written by exactly one task, and each task's internal
// arithmetic is a fixed per-node kernel. The graph edges reproduce the
// level-synchronous ordering wherever two tasks touch the same slot
// (coupling zero+accumulate before the parent's downward add, downward add
// before the leaf expansion reads), so the result is bitwise-identical to a
// serial level-order run of the same kernels at every worker count — there
// is no merge step to make deterministic because no slot ever has two
// writers. The test suites keep that level-order run as their reference.
//
// Task id layout for a tree with nNodes nodes (total = 3*nNodes tasks):
//
//	[0, nNodes)            up(id)    upward sweep, one per node
//	[nNodes, 2*nNodes)     coup(id)  coupling sweep, one per node
//	[2*nNodes, 3*nNodes)   down(id)  downward sweep for internal nodes;
//	                                 leaf nodes have no downward task, so
//	                                 their slot holds the leaf sweep task
//	                                 (leafIdx maps node id -> leaf index)
//
// Edges (dependency -> dependent):
//
//	up(c)    -> up(parent(c))        children before the stacked transfer
//	up(j)    -> coup(i)  ∀ j∈IL(i)   partials before the coupling reads them
//	coup(i)  -> down(i)              down reads g_i after coupling filled it
//	coup(c)  -> down(parent(c))      down adds into g_c after coup zeroed it
//	down(p)  -> down(i)              g_i is final only after p's contribution
//	coup(l)  -> leaf(l)              leaf reads g_l after coupling
//	down(p)  -> leaf(l)              ... and after the parent's add
//
// The same graph and the same four node kernels serve every product: the
// forward and transpose swap which generator side the stages read (U/R vs
// V/W), a k-column batch widens every slot to a k-column panel, and a shard
// scatter skips the downward and leaf stages, but all touch the same slots
// in the same node topology.
type taskGraph struct {
	nNodes  int
	total   int32
	initCnt []int32 // initial dependency count per task id
	depOff  []int32 // CSR offsets into depList per task id
	depList []int32 // dependent task ids
	ready0  []int32 // zero-dependency tasks in deterministic order
	leafIdx []int32 // node id -> index into Tree.Leaves, -1 for internal
}

// schedGraph lazily builds the matrix's task graph (the tree is immutable
// after construction, so one graph serves every workspace and apply kind).
func (m *Matrix) schedGraph() *taskGraph {
	m.schedOnce.Do(func() { m.sched = buildTaskGraph(m.Tree) })
	return m.sched
}

func buildTaskGraph(t *tree.Tree) *taskGraph {
	nN := len(t.Nodes)
	g := &taskGraph{nNodes: nN, total: int32(3 * nN)}
	up := func(id int) int32 { return int32(id) }
	coup := func(id int) int32 { return int32(nN + id) }
	down := func(id int) int32 { return int32(2*nN + id) }
	g.leafIdx = make([]int32, nN)
	for i := range g.leafIdx {
		g.leafIdx[i] = -1
	}
	for k, id := range t.Leaves {
		g.leafIdx[id] = int32(k)
	}

	// Two passes over the same edge enumeration: count out-degrees, then fill.
	deg := make([]int32, 3*nN)
	g.initCnt = make([]int32, 3*nN)
	edges := func(emit func(from, to int32)) {
		for id := range t.Nodes {
			nd := &t.Nodes[id]
			if nd.Parent >= 0 {
				emit(up(id), up(nd.Parent))
				emit(coup(id), down(nd.Parent))
			}
			for _, j := range nd.Interaction {
				emit(up(j), coup(id))
			}
			// down(id) doubles as the leaf task when id is a leaf; the
			// dependencies are the same shape either way.
			emit(coup(id), down(id))
			if nd.Parent >= 0 {
				emit(down(nd.Parent), down(id))
			}
		}
	}
	edges(func(from, to int32) { deg[from]++; g.initCnt[to]++ })
	g.depOff = make([]int32, 3*nN+1)
	for i := 0; i < 3*nN; i++ {
		g.depOff[i+1] = g.depOff[i] + deg[i]
	}
	g.depList = make([]int32, g.depOff[3*nN])
	fill := make([]int32, 3*nN)
	edges(func(from, to int32) {
		g.depList[g.depOff[from]+fill[from]] = to
		fill[from]++
	})

	// Initial frontier, deepest level first: leaf up tasks feed the longest
	// dependency chains, so they go ahead of the isolated zero-interaction
	// coupling tasks.
	for l := len(t.Levels) - 1; l >= 0; l-- {
		for _, id := range t.Levels[l] {
			if t.Nodes[id].IsLeaf {
				g.ready0 = append(g.ready0, up(id))
			}
		}
	}
	for id := range t.Nodes {
		if len(t.Nodes[id].Interaction) == 0 {
			g.ready0 = append(g.ready0, coup(id))
		}
	}

	return g
}

// scheduler is the per-workspace runtime state of one scheduled apply: a
// resettable dependency-count array and a bounded MPMC ready ring. Slots are
// claimed in push order via two atomic cursors; a claimed-but-unfilled slot
// is guaranteed to fill because every task is pushed exactly once (the graph
// is a DAG covering all tasks), so claimants spin-yield instead of parking.
type scheduler struct {
	g     *taskGraph
	cnt   []int32
	queue []int32 // task id + 1; 0 = not yet pushed
	_     [40]byte
	head  atomic.Int64 // next slot to claim
	_     [56]byte
	tail  atomic.Int64 // next slot to fill
	_     [56]byte
}

// reset prepares the scheduler for one apply and seeds the initial frontier.
func (s *scheduler) reset(g *taskGraph) {
	s.g = g
	n := len(g.initCnt)
	if cap(s.cnt) < n {
		s.cnt = make([]int32, n)
		s.queue = make([]int32, n)
	}
	s.cnt = s.cnt[:n]
	s.queue = s.queue[:n]
	copy(s.cnt, g.initCnt)
	for i := range s.queue {
		s.queue[i] = 0
	}
	s.head.Store(0)
	for i, t := range g.ready0 {
		s.queue[i] = t + 1
	}
	s.tail.Store(int64(len(g.ready0)))
}

// runSched is one worker slot's scheduling loop: claim the next ready task
// slot, execute its task, release dependents, repeat until every task is
// claimed. The pool runs one loop per slot (par.Pool.Run); the pool phase
// (and hence the apply) completes only when every loop returns, and a loop
// returns only after finishing the decrements of its last claimed task — so
// loop exit implies every task has fully executed.
func (ws *Workspace) runSched(w int) {
	s := &ws.sched
	g := s.g
	total := int64(g.total)
	for {
		idx := s.head.Add(1) - 1
		if idx >= total {
			return
		}
		var task int32
		for {
			task = atomic.LoadInt32(&s.queue[idx])
			if task != 0 {
				break
			}
			runtime.Gosched()
		}
		task--
		ws.execTask(w, task)
		for _, d := range g.depList[g.depOff[task]:g.depOff[task+1]] {
			if atomic.AddInt32(&s.cnt[d], -1) == 0 {
				slot := s.tail.Add(1) - 1
				atomic.StoreInt32(&s.queue[slot], d+1)
			}
		}
	}
}

// execTask runs one task's node kernel and charges its wall time to the
// worker's per-stage counter line. A scatter (only set) stops after the
// coupling sweep: its downward and leaf tasks run nothing and only release
// their dependents.
func (ws *Workspace) execTask(w int, t int32) {
	g := ws.sched.g
	nN := int32(g.nNodes)
	t0 := nowNS()
	base := w * ctrStride
	switch {
	case t < nN:
		ws.upNode(w, int(t))
		ws.ctr[base+ctrUpNS] += nowNS() - t0
	case t < 2*nN:
		ws.coupNode(w, int(t-nN))
		ws.ctr[base+ctrCoupNS] += nowNS() - t0
	case ws.only != nil:
	default:
		id := int(t - 2*nN)
		if k := g.leafIdx[id]; k >= 0 {
			ws.leafNode(w, int(k))
			ws.ctr[base+ctrLeafNS] += nowNS() - t0
		} else {
			ws.downNode(w, id)
			ws.ctr[base+ctrDownNS] += nowNS() - t0
		}
	}
}

// runScheduled executes one full product (all five sweeps) as a single
// barrier-free phase: one runSched loop per pool worker slot, each with a
// distinct per-worker counter and scratch line. With one worker the pool
// runs its single slot on the caller, so the apply is a serial drain of the
// ready ring; a closed workspace (nil pool) drains the ring on the caller
// directly. The per-worker counters are then flushed and the run is counted
// as one apply.
func (ws *Workspace) runScheduled() {
	ws.sched.reset(ws.m.schedGraph())
	if ws.pool == nil {
		ws.runSched(0)
	} else {
		ws.pool.Run(ws.schedRunFn)
	}
	ws.flushCounters()
	ws.m.sweeps.applies.Add(1)
}
