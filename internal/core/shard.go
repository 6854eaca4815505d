package core

import (
	"fmt"
	"sort"
)

// ShardPlan partitions one operator's tree at a subtree cut so the five-sweep
// apply can run as a two-stage scatter/gather across nodes: each shard owns
// the subtrees under a contiguous slice of the cut and computes the coupling
// sweep for exactly those nodes; the coordinator owns every node above the
// cut and finishes the product. The plan is a pure function of the tree shape
// and the (nshards, cut level) parameters, so every participant derives an
// identical plan from its own replica of the matrix — the wire protocol only
// carries the two integers, never the node sets.
//
// Both halves are vector products on the scheduler like every other
// product. The scatter runs the upward and coupling tasks and skips the
// downward and leaf ones, the coupling masked to the shard's node set; the
// gather runs the full product with the coupling of each node that has a
// received partial replaced by a copy of it.
//
// Bitwise contract: every g_i is computed by exactly one party using the same
// per-node kernel and the same interaction-list order as the single-node
// sweep, and shard partials are merged by placement (copy), never by
// summation. Combined with the full upward sweep running identically on every
// party, the distributed result is bitwise-equal to the single-node apply.
type ShardPlan struct {
	// NShards is the effective shard count (clamped to the cut width).
	NShards int
	// CutLevel is the tree level of the cut.
	CutLevel int
	// Roots[s] lists shard s's cut nodes, ascending by point range.
	Roots [][]int
	// Nodes[s] lists every node in shard s's subtrees, ascending by id.
	// The nodes in no shard, the strict ancestors of the cut, belong to
	// the coordinator.
	Nodes [][]int
}

// AutoCutLevel picks the shallowest level whose subtree cut is wide enough to
// give every shard at least one root, capped at the deepest level.
func (m *Matrix) AutoCutLevel(nshards int) int {
	depth := m.Tree.Depth()
	for l := 1; l < depth; l++ {
		if len(m.Tree.Cut(l)) >= nshards {
			return l
		}
	}
	if depth > 1 {
		return depth - 1
	}
	return 0
}

// PlanShards derives the shard plan for nshards shards cutting the tree at
// cutLevel (<= 0 selects AutoCutLevel). The cut nodes, ordered by point
// range, are grouped into contiguous point-balanced slices; a cut narrower
// than nshards clamps the shard count rather than failing, so the effective
// partition is always total. The same (nshards, cutLevel) pair yields the
// same plan on every replica of the same build.
func (m *Matrix) PlanShards(nshards, cutLevel int) (*ShardPlan, error) {
	if nshards < 1 {
		return nil, fmt.Errorf("core: PlanShards nshards %d < 1", nshards)
	}
	if cutLevel <= 0 {
		cutLevel = m.AutoCutLevel(nshards)
	}
	if cutLevel < 0 || cutLevel >= m.Tree.Depth() {
		return nil, fmt.Errorf("core: PlanShards cut level %d outside tree depth %d", cutLevel, m.Tree.Depth())
	}
	cut := m.Tree.Cut(cutLevel)
	if len(cut) == 0 {
		return nil, fmt.Errorf("core: empty subtree cut at level %d", cutLevel)
	}
	if nshards > len(cut) {
		nshards = len(cut)
	}
	p := &ShardPlan{NShards: nshards, CutLevel: cutLevel}

	// Greedy contiguous grouping balanced by owned point count: each shard
	// takes cut nodes until it reaches the ceiling share of the remaining
	// points, always leaving one node for every shard still to come.
	remainingPts := m.N
	idx := 0
	for s := 0; s < nshards; s++ {
		target := (remainingPts + nshards - s - 1) / (nshards - s)
		maxTake := len(cut) - idx - (nshards - 1 - s)
		var grp []int
		pts := 0
		for idx < len(cut) && len(grp) < maxTake && (len(grp) == 0 || pts < target) {
			grp = append(grp, cut[idx])
			pts += m.Tree.Nodes[cut[idx]].Size()
			idx++
		}
		remainingPts -= pts
		p.Roots = append(p.Roots, grp)
		var nodes []int
		for _, root := range grp {
			nodes = append(nodes, m.Tree.Subtree(root)...)
		}
		// Subtrees of distinct cut nodes are disjoint; the sort fixes the
		// interleaving across subtrees into the ascending-id packing order.
		sort.Ints(nodes)
		p.Nodes = append(p.Nodes, nodes)
	}

	return p, nil
}

// PartialLen returns the packed partial length for one shard (or the
// coordinator set): the sum of the g-side ranks of its nodes — row ranks for
// the plain apply, column ranks for the transpose.
func (m *Matrix) PartialLen(nodes []int, transpose bool) int {
	total := 0
	for _, id := range nodes {
		total += m.gRank(id, transpose)
	}
	return total
}

// gRank is node id's g-side rank: the row rank, or the column rank on the
// transpose.
func (m *Matrix) gRank(id int, transpose bool) int {
	if transpose {
		return m.colRank(id)
	}
	return m.ranks[id]
}

// scatterOnly restricts the coupling kernel of the next run to nodes and
// ends the run after the coupling sweep.
func (ws *Workspace) scatterOnly(nodes []int) {
	ws.only = make([]bool, len(ws.m.Tree.Nodes))
	for _, id := range nodes {
		ws.only[id] = true
	}
}

// gatherParts validates the shard partials and splits them per node: the
// coupling kernel copies parts[id] into g_id instead of computing it. A nil
// shard partial leaves its nodes nil, so the coordinator recomputes them
// locally.
func (m *Matrix) gatherParts(p *ShardPlan, parts [][]float64, transpose bool) ([][]float64, error) {
	if len(parts) != len(p.Nodes) {
		return nil, fmt.Errorf("core: ApplyGather got %d partials want %d", len(parts), len(p.Nodes))
	}
	byNode := make([][]float64, len(m.Tree.Nodes))
	for s, part := range parts {
		if part == nil {
			continue
		}
		if want := m.PartialLen(p.Nodes[s], transpose); len(part) != want {
			return nil, fmt.Errorf("core: shard %d partial length %d want %d", s, len(part), want)
		}
		off := 0
		for _, id := range p.Nodes[s] {
			n := m.gRank(id, transpose)
			byNode[id] = part[off : off+n]
			off += n
		}
	}
	return byNode, nil
}

// ApplyShard runs the scatter half of the distributed apply for shard s: the
// full upward sweep (identical on every party) followed by the coupling
// sweep restricted to the shard's subtree nodes, returning the g segments
// packed in ascending node-id order. b is in original point ordering.
func (m *Matrix) ApplyShard(p *ShardPlan, s int, b []float64, transpose bool) ([]float64, error) {
	if s < 0 || s >= len(p.Nodes) {
		return nil, fmt.Errorf("core: ApplyShard shard %d outside plan of %d", s, len(p.Nodes))
	}
	if len(b) != m.N {
		return nil, fmt.Errorf("core: ApplyShard input length %d want %d", len(b), m.N)
	}
	ws := m.getWorkspace()
	defer m.putWorkspace(ws)
	ws.bind(m, 1, transpose)
	m.Tree.PermuteVec(ws.bp.Data, b)
	nodes := p.Nodes[s]
	ws.scatterOnly(nodes)
	ws.run()
	out := make([]float64, 0, m.PartialLen(nodes, transpose))
	for _, id := range nodes {
		out = append(out, ws.out.panel[id].Data...)
	}
	return out, nil
}

// ApplyGather runs the gather half: the full five-sweep product in which
// the coupling results of shard nodes are copied from the received partials
// instead of computed (any nil partial is recomputed locally — the
// coordinator's shard-failure fallback). The result is bitwise-equal to
// m.ApplyTo (or ApplyTransposeTo) on the same inputs.
func (m *Matrix) ApplyGather(p *ShardPlan, b []float64, parts [][]float64, transpose bool) ([]float64, error) {
	if len(b) != m.N {
		return nil, fmt.Errorf("core: ApplyGather input length %d want %d", len(b), m.N)
	}
	byNode, err := m.gatherParts(p, parts, transpose)
	if err != nil {
		return nil, err
	}
	ws := m.getWorkspace()
	defer m.putWorkspace(ws)
	ws.bind(m, 1, transpose)
	ws.parts = byNode
	m.Tree.PermuteVec(ws.bp.Data, b)
	ws.run()
	y := make([]float64, m.N)
	m.Tree.UnpermuteVec(y, ws.yp.Data)
	return y, nil
}
