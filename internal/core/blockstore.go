package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/pointset"
)

// blockKey identifies a stored coupling or nearfield block by its node-id
// pair. Only keys with I <= J are stored (symmetric kernel); the transposed
// block is applied on the fly.
type blockKey struct{ I, J int }

// BlockStore is the paper's coupling-block container (§III-A): a sparse
// integer index ("the value of the element at (i,j) providing the linear
// index into a vector of dense matrices") plus the dense block slab. The
// workspace's block-apply helper (block) makes callers oblivious to whether
// a block was stored at construction (normal and hybrid modes) or is
// evaluated on the fly.
//
// The store has two representations. During the build phase it is a
// map[blockKey] index over individually-allocated blocks — cheap to insert
// concurrently. Freeze compacts it into a frozen CSR layout: a per-node
// offset array (rowPtr) over sorted column ids (colIdx) resolving each
// (i, j) to a block header in one contiguous header array, with every block
// payload copied into a single []float64 slab in traversal (row-major
// (i, j)) order. The frozen read path therefore does no map lookups and no
// per-block pointer-chases, and the coupling sweep streams the slab in apply
// order; the map and the scattered build-phase blocks are released.
//
// Concurrency: Put is safe for concurrent use during parallel construction,
// and all read methods (Get, the block appliers, Len, Bytes, MaxBlockBytes)
// take a read lock, so concurrent Put+Get during the build phase is safe.
// Once the store is complete, Freeze switches reads to the lock-free compact
// fast path; Put after Freeze panics.
type BlockStore struct {
	mu       sync.RWMutex
	frozen   atomic.Bool
	index    map[blockKey]int32
	blocks   []*mat.Dense
	directed bool

	// Frozen CSR form (nil until Freeze). hdr[k]'s Data aliases slab; the
	// block for (i, j) is hdr[blockAt(i, j)].
	rowPtr []int32
	colIdx []int32
	hdr    []mat.Dense
	slab   []float64

	// Byte accounting memoized at Freeze time: Bytes and MaxBlockBytes are
	// O(blocks) walks before Freeze and O(1) after (MemoryStats reads them
	// repeatedly).
	frozenBytes  int64
	frozenMaxBlk int64
}

// NewBlockStore returns an empty triangular store for symmetric kernels:
// only pairs with i <= j may be stored and the (j, i) block is applied as
// the transpose.
func NewBlockStore() *BlockStore {
	return &BlockStore{index: make(map[blockKey]int32)}
}

// NewDirectedBlockStore returns an empty store for unsymmetric kernels:
// every directed pair is stored and applied verbatim.
func NewDirectedBlockStore() *BlockStore {
	return &BlockStore{index: make(map[blockKey]int32), directed: true}
}

// Put stores block b for the node pair (i, j); in triangular mode i <= j is
// required. It is safe for concurrent use during parallel construction and
// panics after Freeze.
func (s *BlockStore) Put(i, j int, b *mat.Dense) {
	if !s.directed && i > j {
		panic("core: BlockStore.Put requires i <= j (symmetric storage)")
	}
	if s.frozen.Load() {
		panic("core: BlockStore.Put after Freeze")
	}
	s.mu.Lock()
	s.index[blockKey{i, j}] = int32(len(s.blocks))
	s.blocks = append(s.blocks, b)
	s.mu.Unlock()
}

// Freeze marks construction as complete and compacts the store into its
// frozen CSR form: subsequent reads are lock-free, map-free, and stream one
// contiguous payload slab; further Puts panic. All Puts must happen-before
// Freeze (the builder's parallel-for barrier guarantees this). Stores laid
// out by Preallocate are already in CSR form — Freeze then only flips the
// frozen bit. Freeze is idempotent.
func (s *BlockStore) Freeze() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen.Load() {
		return
	}
	if s.rowPtr == nil {
		s.compact()
	}
	s.frozen.Store(true)
}

// PutSpec describes one block of a Preallocate layout: its store key and
// payload shape.
type PutSpec struct {
	I, J       int
	Rows, Cols int
}

// Preallocate lays out the frozen CSR form for exactly the given blocks and
// returns one slab-backed view per spec, parallel to specs: callers
// assemble each payload directly into its view (the views are
// write-disjoint, so parallel assembly is safe) and then call Freeze, which
// only flips the frozen bit. This skips the build-phase map and the
// Freeze-time compact copy entirely — the accelerated normal-mode build
// path. The resulting layout is identical to Put+Freeze: blocks sorted by
// (i, j) in one contiguous slab.
//
// Must be called once, on an empty store; Put may not be mixed with it.
func (s *BlockStore) Preallocate(specs []PutSpec) []*mat.Dense {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rowPtr != nil || len(s.blocks) > 0 {
		panic("core: BlockStore.Preallocate on a non-empty store")
	}
	ord := make([]int, len(specs))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool {
		sa, sb := specs[ord[a]], specs[ord[b]]
		if sa.I != sb.I {
			return sa.I < sb.I
		}
		return sa.J < sb.J
	})
	maxI := -1
	var slabLen, maxBlk int64
	for _, sp := range specs {
		if !s.directed && sp.I > sp.J {
			panic("core: BlockStore.Preallocate requires i <= j (symmetric storage)")
		}
		if sp.I > maxI {
			maxI = sp.I
		}
		sz := int64(sp.Rows) * int64(sp.Cols)
		slabLen += sz
		if bb := sz * 8; bb > maxBlk {
			maxBlk = bb
		}
	}

	s.rowPtr = make([]int32, maxI+2)
	s.colIdx = make([]int32, len(specs))
	s.hdr = make([]mat.Dense, len(specs))
	s.slab = make([]float64, slabLen)
	out := make([]*mat.Dense, len(specs))
	var off int64
	for k, oi := range ord {
		sp := specs[oi]
		sz := int64(sp.Rows) * int64(sp.Cols)
		s.hdr[k] = mat.Dense{Rows: sp.Rows, Cols: sp.Cols, Data: s.slab[off : off+sz]}
		s.colIdx[k] = int32(sp.J)
		s.rowPtr[sp.I+1]++
		out[oi] = &s.hdr[k]
		off += sz
	}
	for i := 1; i < len(s.rowPtr); i++ {
		s.rowPtr[i] += s.rowPtr[i-1]
	}
	s.frozenBytes = s.csrBytes(slabLen)
	s.frozenMaxBlk = maxBlk
	s.index = nil
	s.blocks = nil
	return out
}

// csrBytes is the frozen-form footprint over a payload of slabLen elements:
// slab payload, header array and CSR index. An empty store holds no block
// and reports zero bytes.
func (s *BlockStore) csrBytes(slabLen int64) int64 {
	if len(s.hdr) == 0 {
		return 0
	}
	return slabLen*8 + int64(len(s.hdr))*40 + int64(len(s.rowPtr)+len(s.colIdx))*4
}

// compact builds the CSR index and payload slab from the build-phase map and
// releases the map-backed representation. Caller holds mu.
func (s *BlockStore) compact() {
	nBlocks := len(s.blocks)
	keys := make([]blockKey, 0, nBlocks)
	maxI := -1
	var slabLen int64
	var maxBlk int64
	for k := range s.index {
		keys = append(keys, k)
		if k.I > maxI {
			maxI = k.I
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].I != keys[b].I {
			return keys[a].I < keys[b].I
		}
		return keys[a].J < keys[b].J
	})
	for _, k := range keys {
		b := s.blocks[s.index[k]]
		sz := int64(len(b.Data))
		slabLen += sz
		if bb := sz * 8; bb > maxBlk {
			maxBlk = bb
		}
	}

	s.rowPtr = make([]int32, maxI+2)
	s.colIdx = make([]int32, len(keys))
	s.hdr = make([]mat.Dense, len(keys))
	s.slab = make([]float64, slabLen)
	var off int64
	for k, key := range keys {
		b := s.blocks[s.index[key]]
		seg := s.slab[off : off+int64(len(b.Data))]
		copy(seg, b.Data)
		s.hdr[k] = mat.Dense{Rows: b.Rows, Cols: b.Cols, Data: seg}
		s.colIdx[k] = int32(key.J)
		s.rowPtr[key.I+1]++
		off += int64(len(b.Data))
	}
	for i := 1; i < len(s.rowPtr); i++ {
		s.rowPtr[i] += s.rowPtr[i-1]
	}

	s.frozenBytes = s.csrBytes(slabLen)
	s.frozenMaxBlk = maxBlk

	// Release the build-phase representation (the scattered blocks and the
	// map are the last references to the original payload allocations).
	s.index = nil
	s.blocks = nil
}

// blockAt resolves (i, j) in the frozen CSR index to a header position, or
// -1. Rows are interaction/nearfield lists — a few dozen entries — so a
// branch-light binary search beats hashing without any pointer-chasing.
func (s *BlockStore) blockAt(i, j int) int {
	if i < 0 || i+1 >= len(s.rowPtr) {
		return -1
	}
	lo, hi := int(s.rowPtr[i]), int(s.rowPtr[i+1])
	jj := int32(j)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.colIdx[mid] < jj {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int(s.rowPtr[i+1]) && s.colIdx[lo] == jj {
		return lo
	}
	return -1
}

// Get returns the block stored for exactly (i, j), or nil. After Freeze the
// returned header aliases the compact slab.
func (s *BlockStore) Get(i, j int) *mat.Dense {
	if s.frozen.Load() {
		if k := s.blockAt(i, j); k >= 0 {
			return &s.hdr[k]
		}
		// Frozen without a CSR index only happens for stores frozen through
		// the test-only freezeNoCompact path; fall through to the map.
		if s.index == nil {
			return nil
		}
		k, ok := s.index[blockKey{i, j}]
		if !ok {
			return nil
		}
		return s.blocks[k]
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	k, ok := s.index[blockKey{i, j}]
	if !ok {
		return nil
	}
	return s.blocks[k]
}

// apply accumulates one stored block product into the panel g and reports
// whether the block was found: g += B_{i,j} q, or g += B_{j,i}ᵀ q on the
// transpose (a k = 1 product). otfOrder selects the summation order of the
// fused on-the-fly kernels (the hybrid store, which must be
// indistinguishable from on-the-fly evaluation) instead of the plain
// stored-block order (Normal mode).
//
// The needed block is B_{a,b} with (a, b) = (i, j), or (j, i) on the
// transpose. A store holding (a, b) itself applies it forward (transposed
// on the transpose). A triangular store keeps only a <= b, so for a > b it
// applies the mirrored payload (b, a), which equals B_{a,b}ᵀ element for
// element: with MulTAddTo in plain order, with MulTAddToDot (the column
// walk with the on-the-fly dot grouping) in on-the-fly order, and with
// MulVecAddSeq (MulTVecAdd's sequential accumulation) on an on-the-fly-order
// transpose. A plain-order triangular transpose is the forward product,
// since B_{j,i}ᵀ = B_{i,j}.
func (s *BlockStore) apply(g *mat.Dense, i, j int, q *mat.Dense, transpose, otfOrder bool) bool {
	if transpose && !s.directed && !otfOrder {
		transpose = false
	}
	a, b := i, j
	if transpose {
		a, b = j, i
	}
	if s.directed || a <= b {
		blk := s.Get(a, b)
		if blk == nil {
			return false
		}
		if transpose {
			mat.MulTAddTo(g, blk, q)
		} else {
			mat.MulAddTo(g, blk, q)
		}
		return true
	}
	blk := s.Get(b, a)
	if blk == nil {
		return false
	}
	switch {
	case transpose:
		mat.MulVecAddSeq(g.Data, blk, q.Data)
	case otfOrder:
		mat.MulTAddToDot(g, blk, q)
	default:
		mat.MulTAddTo(g, blk, q)
	}
	return true
}

// store returns the coupling store, or for near the nearfield store.
func (ws *Workspace) store(near bool) *BlockStore {
	if near {
		return ws.m.near
	}
	return ws.m.coup
}

// blockPoints returns the kernel geometry of the (i, j) coupling block
// (skeleton points, out side's skeleton of i, in side's skeleton of j) or,
// for near, of the (i, j) nearfield block (the two leaves' points).
func (ws *Workspace) blockPoints(near bool, i, j int) (x *pointset.Points, ri []int, y *pointset.Points, rj []int) {
	m := ws.m
	if near {
		return m.Tree.Points, m.leafRange(i), m.Tree.Points, m.leafRange(j)
	}
	return m.skelPts[i], ws.out.skel[i], m.skelPts[j], ws.in.skel[j]
}

// block is the block-apply helper behind the coupling and leaf kernels:
// out += B in for the (i, j) coupling block, or for near the nearfield
// block, with B = K(x[ri], y[rj]) (see blockPoints), or
// out += K(y[rj], x[ri])ᵀ in on the transpose. Normal mode applies the
// stored block; Hybrid applies it in on-the-fly order when stored and
// evaluates it otherwise; OnTheFly always evaluates the fused kernel, which
// for k > 1 stages one tile row at a time in worker w's scratch panel.
// Hits, misses and evaluation time land on worker w's counter line.
func (ws *Workspace) block(w int, near bool, out *mat.Dense, i, j int, in *mat.Dense) {
	switch ws.m.Cfg.Mode {
	case Normal:
		ws.store(near).apply(out, i, j, in, ws.transpose, false)
		return
	case Hybrid:
		if ws.store(near).apply(out, i, j, in, ws.transpose, true) {
			ws.ctr[w*ctrStride+ctrHit]++
			return
		}
		ws.ctr[w*ctrStride+ctrMiss]++
	}
	x, ri, y, rj := ws.blockPoints(near, i, j)
	t := nowNS()
	if ws.transpose {
		kernel.BlockTVecAdd(out.Data, ws.m.Kern, y, rj, x, ri, in.Data)
	} else {
		kernel.BlockMulAdd(out, ws.m.Kern, x, ri, y, rj, in, ws.scratch[w])
	}
	ws.ctr[w*ctrStride+ctrOtfNS] += nowNS() - t
}

// Len returns the number of stored blocks.
func (s *BlockStore) Len() int {
	if s.frozen.Load() {
		if s.rowPtr != nil {
			return len(s.hdr)
		}
		return len(s.blocks)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blocks)
}

// Bytes returns the memory footprint. Frozen stores answer from the value
// memoized at Freeze time (slab payload + header array + CSR index);
// build-phase stores walk the blocks and charge dense payloads plus index
// entries (key, value, and map bucket overhead estimated at 8 bytes per
// entry).
func (s *BlockStore) Bytes() int64 {
	if s.frozen.Load() && s.rowPtr != nil {
		return s.frozenBytes
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var b int64
	for _, blk := range s.blocks {
		b += int64(len(blk.Data))*8 + 24
	}
	b += int64(len(s.index)) * (16 + 4 + 8)
	return b
}

// MaxBlockBytes returns the size of the largest stored block, the quantity
// that bounds per-worker scratch in on-the-fly mode. Frozen stores answer
// from the memoized Freeze-time value.
func (s *BlockStore) MaxBlockBytes() int64 {
	if s.frozen.Load() && s.rowPtr != nil {
		return s.frozenMaxBlk
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var m int64
	for _, blk := range s.blocks {
		if b := int64(len(blk.Data)) * 8; b > m {
			m = b
		}
	}
	return m
}

// freezeNoCompact freezes the store while keeping the build-phase map
// representation — the seed read path. It exists for the equivalence tests
// that check the compacted layout is bit-identical to the map-backed one.
func (s *BlockStore) freezeNoCompact() { s.frozen.Store(true) }

// uncompacted returns a map-backed clone of a frozen compacted store, frozen
// without compaction — the seed (fork-join era) read path over identical
// payload values. Test helper for bitwise-equivalence checks.
func (s *BlockStore) uncompacted() *BlockStore {
	if s.rowPtr == nil {
		panic("core: uncompacted needs a compacted store")
	}
	c := &BlockStore{index: make(map[blockKey]int32), directed: s.directed}
	for i := 0; i+1 < len(s.rowPtr); i++ {
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			c.Put(i, int(s.colIdx[k]), s.hdr[k].Clone())
		}
	}
	c.freezeNoCompact()
	return c
}
