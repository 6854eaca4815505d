package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"h2ds/internal/interp"
	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/par"
	"h2ds/internal/pointset"
	"h2ds/internal/sample"
	"h2ds/internal/tree"
)

// Serialization lets a constructed H² matrix be persisted and reloaded —
// construction is the expensive phase (paper §I-A), so saving the
// generators extends the amortization story across processes. The format
// stores the tree, permutation, per-node generators, skeleton indices, and
// sampling hierarchy; stored coupling/nearfield blocks (normal mode) are
// re-assembled from the kernel at load time, since they are pure kernel
// submatrices.

// serialMagic identifies the file format; serialVersion is bumped on any
// incompatible change. Version 2 added Config.StorageBudget (hybrid mode);
// version 3 added Config.RelTol and the a-posteriori error estimate of
// error-controlled builds (per-level ranks are recomputed from the per-node
// ranks at load); version 4 appended an integrity footer (magic + CRC32-IEEE
// of every preceding byte) so spill rehydration and cluster replication
// transfers detect torn or corrupted payloads instead of mis-deserializing;
// version 5 added a stored-block section for kernel-less matrices (entry
// oracles, internal/oracle): their coupling/nearfield blocks are data the
// load side cannot re-derive, so they travel in the stream verbatim.
// Versions 1–4 are still readable; they imply zero budget / fixed-parameter
// build / no checksum verification / no stored-block section respectively.
const (
	serialMagic       = "H2DS"
	serialFooterMagic = "H2CK"
	serialVersion     = uint32(5)
	serialVersionMin  = uint32(1)
)

// crcWriter tees everything written through it into a running CRC32-IEEE.
// It sits between the buffered serializer and the destination so the footer
// checksum covers the exact bytes that reach the stream.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// crcReader mirrors crcWriter on the load side: every body byte the
// deserializer consumes updates the running checksum. The footer itself is
// read from the underlying buffered reader, bypassing the checksum.
type crcReader struct {
	r   io.Reader
	crc uint32
	n   int64 // bytes delivered so far
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	c.n += int64(n)
	return n, err
}

type serialWriter struct {
	w   *bufio.Writer
	n   int64
	err error
}

func (s *serialWriter) write(v any) {
	if s.err != nil {
		return
	}
	s.err = binary.Write(s.w, binary.LittleEndian, v)
	if s.err == nil {
		s.n += int64(binary.Size(v))
	}
}

func (s *serialWriter) writeI64(v int) { s.write(int64(v)) }

func (s *serialWriter) writeString(v string) {
	s.writeI64(len(v))
	if s.err != nil {
		return
	}
	var n int
	n, s.err = s.w.WriteString(v)
	s.n += int64(n)
}

func (s *serialWriter) writeIntSlice(v []int) {
	s.writeI64(len(v))
	for _, x := range v {
		s.writeI64(x)
	}
}

func (s *serialWriter) writeF64Slice(v []float64) {
	s.writeI64(len(v))
	if s.err != nil || len(v) == 0 {
		return
	}
	s.write(v)
}

func (s *serialWriter) writeDense(d *mat.Dense) {
	if d == nil {
		s.writeI64(-1)
		return
	}
	s.writeI64(d.Rows)
	s.writeI64(d.Cols)
	s.writeF64Slice(d.Data)
}

type serialReader struct {
	// r delivers body bytes through the checksum; br is the underlying
	// buffered reader the footer is read from directly.
	r   io.Reader
	br  *bufio.Reader
	crc *crcReader
	err error
	// size bounds the stream's bytes from the start of the read when the
	// source can tell without reading (see streamLen), -1 otherwise.
	size int64
}

func newSerialReader(r io.Reader) *serialReader {
	br := bufio.NewReader(r)
	cr := &crcReader{r: br}
	return &serialReader{r: cr, br: br, crc: cr, size: streamLen(r)}
}

// streamLen returns an upper bound on the bytes r has left when r can tell
// without reading — an in-memory buffer, a regular file, or a
// length-limited reader (an HTTP body of known Content-Length) — and -1
// otherwise.
func streamLen(r io.Reader) int64 {
	switch v := r.(type) {
	case interface{ Len() int }:
		return int64(v.Len())
	case *io.LimitedReader:
		return v.N
	case *os.File:
		fi, err := v.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return -1
		}
		pos, err := v.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		return fi.Size() - pos
	}
	return -1
}

// verifyFooter consumes the version-4 integrity footer and compares it with
// the checksum accumulated over every body byte read so far.
func (s *serialReader) verifyFooter() error {
	if s.err != nil {
		return s.err
	}
	sum := s.crc.crc
	var foot [8]byte
	if _, err := io.ReadFull(s.br, foot[:]); err != nil {
		return fmt.Errorf("core: truncated stream: missing checksum footer: %w", err)
	}
	if string(foot[:4]) != serialFooterMagic {
		return fmt.Errorf("core: corrupt stream: bad checksum footer magic %q", foot[:4])
	}
	if stored := binary.LittleEndian.Uint32(foot[4:]); stored != sum {
		return fmt.Errorf("core: corrupt stream: checksum mismatch (stored %08x computed %08x)", stored, sum)
	}
	return nil
}

func (s *serialReader) read(v any) {
	if s.err != nil {
		return
	}
	s.err = binary.Read(s.r, binary.LittleEndian, v)
}

func (s *serialReader) readI64() int {
	var v int64
	s.read(&v)
	return int(v)
}

// maxSliceLen guards against corrupt headers allocating absurd amounts.
const maxSliceLen = 1 << 33

// readChunk is the most elements a reader of a stream of unknown length
// allocates ahead of the bytes that back them: longer slices grow as their
// data arrives (see room), so a corrupt or hostile length prefix costs at
// most one chunk before the stream runs dry.
const readChunk = 1 << 14

func (s *serialReader) checkLen(n int) bool {
	if s.err != nil {
		return false
	}
	if n < 0 || int64(n) > maxSliceLen {
		s.err = fmt.Errorf("core: corrupt stream (length %d)", n)
		return false
	}
	return true
}

// initCap returns the capacity to allocate up front for a slice of declared
// length n whose elements take at least size bytes each in the stream. When
// the stream's length is known, a slice the remaining bytes cannot back is
// rejected and any other is allocated once, whole. Otherwise allocation
// starts at one chunk and grows as the data arrives (see room).
func (s *serialReader) initCap(n, size int) int {
	if s.size < 0 {
		return min(n, readChunk)
	}
	if left := s.size - s.crc.n; int64(n)*int64(size) > left {
		s.err = fmt.Errorf("core: truncated stream (%d elements of %d bytes declared, %d bytes left)", n, size, left)
		return 0
	}
	return n
}

// room returns v with spare capacity for at least one more element, for a
// slice whose declared length is n. Capacity doubles but never passes n, so
// an honest stream of unknown length peaks at twice the final slice while
// growing and ends with exactly n.
func room[T any](v []T, n int) []T {
	if len(v) < cap(v) {
		return v
	}
	nv := make([]T, len(v), min(n, max(2*cap(v), readChunk)))
	copy(nv, v)
	return nv
}

// readChunked reads a slice of declared length n (already checked), each
// element encoded in size bytes, chunk by chunk, fill decoding each chunk
// from the stream.
func readChunked[T any](s *serialReader, n, size int, fill func([]T)) []T {
	c := s.initCap(n, size)
	if s.err != nil {
		return nil
	}
	v := make([]T, 0, c)
	for len(v) < n && s.err == nil {
		v = room(v, n)
		c := min(n-len(v), cap(v)-len(v), readChunk)
		fill(v[len(v) : len(v)+c])
		v = v[:len(v)+c]
	}
	return v
}

func (s *serialReader) readString() string {
	n := s.readI64()
	if !s.checkLen(n) {
		return ""
	}
	buf := readChunked(s, n, 1, func(b []byte) {
		if s.err == nil {
			_, s.err = io.ReadFull(s.r, b)
		}
	})
	return string(buf)
}

func (s *serialReader) readIntSlice() []int {
	n := s.readI64()
	if !s.checkLen(n) {
		return nil
	}
	return readChunked(s, n, 8, func(v []int) {
		for i := range v {
			v[i] = s.readI64()
		}
	})
}

func (s *serialReader) readF64Slice() []float64 {
	n := s.readI64()
	if !s.checkLen(n) {
		return nil
	}
	return readChunked(s, n, 8, func(v []float64) { s.read(v) })
}

func (s *serialReader) readDense() *mat.Dense {
	rows := s.readI64()
	if rows == -1 {
		return nil
	}
	cols := s.readI64()
	data := s.readF64Slice()
	if s.err != nil {
		return nil
	}
	if rows < 0 || cols < 0 || len(data) != rows*cols {
		s.err = fmt.Errorf("core: corrupt dense block %dx%d with %d values", rows, cols, len(data))
		return nil
	}
	return mat.NewDenseData(rows, cols, data)
}

// writeBlockStore serializes a frozen store's compact CSR form: the index
// arrays, per-block shapes, and the contiguous payload slab. Only frozen
// stores are serialized (construction completes before WriteTo).
func writeBlockStore(s *serialWriter, bs *BlockStore) {
	if bs == nil || !bs.frozen.Load() || bs.rowPtr == nil {
		s.write(false)
		return
	}
	s.write(true)
	s.write(bs.directed)
	s.writeI64(len(bs.rowPtr))
	for _, v := range bs.rowPtr {
		s.writeI64(int(v))
	}
	s.writeI64(len(bs.hdr))
	for k := range bs.hdr {
		s.writeI64(int(bs.colIdx[k]))
		s.writeI64(bs.hdr[k].Rows)
		s.writeI64(bs.hdr[k].Cols)
	}
	s.writeF64Slice(bs.slab)
}

// readBlockStore reconstructs a frozen store from writeBlockStore's layout,
// re-aliasing each block header into the single payload slab exactly as
// Freeze's compaction does.
func readBlockStore(s *serialReader) *BlockStore {
	var present bool
	s.read(&present)
	if s.err != nil || !present {
		return nil
	}
	bs := &BlockStore{}
	s.read(&bs.directed)
	nRows := s.readI64()
	if !s.checkLen(nRows) {
		return nil
	}
	bs.rowPtr = readChunked(s, nRows, 8, func(v []int32) {
		for i := range v {
			v[i] = int32(s.readI64())
		}
	})
	nBlocks := s.readI64()
	if !s.checkLen(nBlocks) {
		return nil
	}
	// Each block's column and shape take 24 bytes.
	c := s.initCap(nBlocks, 24)
	if s.err != nil {
		return nil
	}
	bs.colIdx = make([]int32, 0, c)
	bs.hdr = make([]mat.Dense, 0, c)
	var need int64
	var maxBlk int64
	for k := 0; k < nBlocks; k++ {
		col := int32(s.readI64())
		rows, cols := s.readI64(), s.readI64()
		if s.err != nil {
			return nil
		}
		if rows < 0 || cols < 0 || int64(rows)*int64(cols) > maxSliceLen {
			s.err = fmt.Errorf("core: corrupt stored block %dx%d", rows, cols)
			return nil
		}
		bs.colIdx = append(room(bs.colIdx, nBlocks), col)
		bs.hdr = append(room(bs.hdr, nBlocks), mat.Dense{Rows: rows, Cols: cols})
		need += int64(rows) * int64(cols)
		if bb := int64(rows) * int64(cols) * 8; bb > maxBlk {
			maxBlk = bb
		}
	}
	bs.slab = s.readF64Slice()
	if s.err != nil {
		return nil
	}
	if int64(len(bs.slab)) != need || (nRows == 0 && nBlocks > 0) ||
		(nRows > 0 && int(bs.rowPtr[nRows-1]) != nBlocks) {
		s.err = fmt.Errorf("core: corrupt block store section (%d blocks, slab %d, need %d)", nBlocks, len(bs.slab), need)
		return nil
	}
	var off int64
	for k := 0; k < nBlocks; k++ {
		sz := int64(bs.hdr[k].Rows) * int64(bs.hdr[k].Cols)
		bs.hdr[k].Data = bs.slab[off : off+sz]
		off += sz
	}
	bs.frozenBytes = bs.csrBytes(need)
	bs.frozenMaxBlk = maxBlk
	bs.frozen.Store(true)
	return bs
}

// WriteTo serializes the matrix generators (not the kernel, which is code).
// Kernel-less matrices (built through an entry oracle; Name() == "") also
// carry their stored coupling/nearfield blocks, since the load side has no
// kernel to re-assemble them from; they must be in Normal mode — the only
// mode whose apply never evaluates fresh entries.
// It implements io.WriterTo.
func (m *Matrix) WriteTo(w io.Writer) (int64, error) {
	kernelLess := m.Kern.Name() == ""
	if kernelLess && (m.Cfg.Mode != Normal || m.coup == nil || m.near == nil) {
		return 0, fmt.Errorf("core: kernel-less matrix must be in normal mode with stored blocks to serialize (mode %v)", m.Cfg.Mode)
	}
	cw := &crcWriter{w: w}
	s := &serialWriter{w: bufio.NewWriter(cw)}
	s.writeString(serialMagic)
	s.write(serialVersion)
	s.writeString(m.Kern.Name())

	// Configuration subset needed to reconstruct behavior.
	s.write(uint8(m.Cfg.Kind))
	s.write(uint8(m.Cfg.Mode))
	s.write(m.Cfg.Tol)
	s.writeI64(m.Cfg.LeafSize)
	s.write(m.Cfg.Eta)
	s.writeI64(m.Cfg.SampleBudget)
	s.writeI64(m.Cfg.P)
	s.write(m.Cfg.StorageBudget)
	s.write(m.Cfg.RelTol)
	s.write(m.stats.EstRelErr)
	s.write(m.sharedBasis)
	s.writeI64(m.N)
	s.writeI64(m.Dim)

	// Tree.
	t := m.Tree
	s.writeF64Slice(t.Points.Coords)
	s.writeIntSlice(t.Perm)
	s.writeI64(t.LeafSize)
	s.write(t.Eta)
	s.writeI64(len(t.Nodes))
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		s.writeI64(nd.Parent)
		s.writeI64(nd.Level)
		s.writeI64(nd.Start)
		s.writeI64(nd.End)
		s.write(nd.IsLeaf)
		s.writeIntSlice(nd.Children)
		s.writeIntSlice(nd.Interaction)
		s.writeIntSlice(nd.Near)
		s.writeF64Slice(nd.Box.Min)
		s.writeF64Slice(nd.Box.Max)
	}

	// Generators.
	for id := range t.Nodes {
		s.writeI64(m.ranks[id])
		s.writeIntSlice(m.skel[id])
		s.writeDense(m.u[id])
		s.writeDense(m.trans[id])
		if !m.sharedBasis {
			s.writeI64(m.colRanks[id])
			s.writeIntSlice(m.colSkel[id])
			s.writeDense(m.v[id])
			s.writeDense(m.wTrans[id])
		}
	}

	// Sampling hierarchy (data-driven only).
	if m.hier != nil {
		s.write(true)
		for id := range t.Nodes {
			s.writeIntSlice(m.hier.XStar[id])
			s.writeIntSlice(m.hier.YStar[id])
		}
	} else {
		s.write(false)
	}

	// Version 5: kernel-less matrices ship their frozen block stores
	// verbatim — the payload is oracle data the reader cannot recompute, and
	// shipping the exact slabs makes a save/load round trip (and therefore
	// every cluster replica) bitwise-identical in apply.
	if kernelLess {
		s.write(uint8(1))
		s.write(m.Kern.Symmetric())
		writeBlockStore(s, m.coup)
		writeBlockStore(s, m.near)
	} else {
		s.write(uint8(0))
	}

	if s.err == nil {
		s.err = s.w.Flush()
	}
	if s.err == nil {
		// The footer goes to the raw destination: the checksum covers every
		// byte before it, and the footer itself stays outside the sum.
		var foot [8]byte
		copy(foot[:4], serialFooterMagic)
		binary.LittleEndian.PutUint32(foot[4:], cw.crc)
		var n int
		n, s.err = w.Write(foot[:])
		s.n += int64(n)
	}
	return s.n, s.err
}

// readHeader consumes the magic, version, and recorded kernel name and
// returns the kernel name and stream version.
func readHeader(s *serialReader) (string, uint32, error) {
	if magic := s.readString(); s.err == nil && magic != serialMagic {
		return "", 0, fmt.Errorf("core: not an h2ds stream (magic %q)", magic)
	}
	var version uint32
	s.read(&version)
	if s.err == nil && (version < serialVersionMin || version > serialVersion) {
		return "", 0, fmt.Errorf("core: unsupported stream version %d (want %d..%d)", version, serialVersionMin, serialVersion)
	}
	kname := s.readString()
	return kname, version, s.err
}

// Read deserializes a matrix written by WriteTo. The kernel function is not
// stored (it is code); the caller supplies it and its Name must match the
// one recorded at save time. For normal memory mode the coupling and
// nearfield blocks are re-assembled from the kernel (they are kernel
// submatrices, so this is exact).
func Read(r io.Reader, k kernel.Pairwise) (*Matrix, error) {
	s := newSerialReader(r)
	kname, version, err := readHeader(s)
	if err != nil {
		return nil, err
	}
	if kname != k.Name() {
		return nil, fmt.Errorf("core: stream was built with kernel %q, got %q", kname, k.Name())
	}
	return readBody(s, k, version)
}

// ReadAny deserializes a matrix written by WriteTo, resolving the kernel
// from the name recorded in the stream via kernel.ByName. An empty kernel
// name marks a kernel-less stream (entry-oracle build): no lookup happens,
// the stored blocks are taken from the stream, and the loaded matrix gets a
// placeholder kernel that refuses fresh evaluations. Streams built with a
// named kernel outside the name registry (custom or parameterized kernels)
// fail with the registry's unknown-kernel error; use Read with the explicit
// kernel for those.
func ReadAny(r io.Reader) (*Matrix, error) {
	s := newSerialReader(r)
	kname, version, err := readHeader(s)
	if err != nil {
		return nil, err
	}
	var k kernel.Pairwise
	if kname != "" {
		k, err = kernel.ByName(kname)
		if err != nil {
			return nil, fmt.Errorf("core: cannot resolve stream kernel: %w", err)
		}
	}
	return readBody(s, k, version)
}

// readBody deserializes everything after the header under the given kernel.
func readBody(s *serialReader, k kernel.Pairwise, version uint32) (*Matrix, error) {
	m := &Matrix{Kern: k}
	var kind, mode uint8
	s.read(&kind)
	s.read(&mode)
	m.Cfg.Kind = BasisKind(kind)
	m.Cfg.Mode = MemoryMode(mode)
	s.read(&m.Cfg.Tol)
	m.Cfg.LeafSize = s.readI64()
	s.read(&m.Cfg.Eta)
	m.Cfg.SampleBudget = s.readI64()
	m.Cfg.P = s.readI64()
	if version >= 2 {
		s.read(&m.Cfg.StorageBudget)
	}
	if version >= 3 {
		s.read(&m.Cfg.RelTol)
		s.read(&m.stats.EstRelErr)
		m.stats.RelTol = m.Cfg.RelTol
	}
	s.read(&m.sharedBasis)
	m.N = s.readI64()
	m.Dim = s.readI64()
	if s.err != nil {
		return nil, s.err
	}
	if m.N <= 0 || m.Dim <= 0 || m.N > maxSliceLen || m.Dim > 64 {
		return nil, fmt.Errorf("core: corrupt header n=%d dim=%d", m.N, m.Dim)
	}

	// Tree.
	t := &tree.Tree{}
	coords := s.readF64Slice()
	t.Points = &pointset.Points{Dim: m.Dim, Coords: coords}
	t.Perm = s.readIntSlice()
	t.LeafSize = s.readI64()
	s.read(&t.Eta)
	nNodes := s.readI64()
	if s.err != nil {
		return nil, s.err
	}
	if !s.checkLen(nNodes) || len(coords) != m.N*m.Dim || len(t.Perm) != m.N {
		return nil, fmt.Errorf("core: corrupt tree section")
	}
	t.InvPerm = make([]int, m.N)
	for i := range t.InvPerm {
		t.InvPerm[i] = -1
	}
	for kk, orig := range t.Perm {
		if orig < 0 || orig >= m.N || t.InvPerm[orig] >= 0 {
			return nil, fmt.Errorf("core: corrupt permutation entry %d", orig)
		}
		t.InvPerm[orig] = kk
	}
	// A node takes at least 73 bytes: four ints, the leaf flag and five
	// slice lengths.
	c := s.initCap(nNodes, 73)
	if s.err != nil {
		return nil, s.err
	}
	t.Nodes = make([]tree.Node, 0, c)
	for i := 0; i < nNodes; i++ {
		t.Nodes = append(room(t.Nodes, nNodes), tree.Node{})
		nd := &t.Nodes[i]
		nd.ID = i
		nd.Parent = s.readI64()
		nd.Level = s.readI64()
		nd.Start = s.readI64()
		nd.End = s.readI64()
		s.read(&nd.IsLeaf)
		nd.Children = s.readIntSlice()
		nd.Interaction = s.readIntSlice()
		nd.Near = s.readIntSlice()
		nd.Box.Min = s.readF64Slice()
		nd.Box.Max = s.readF64Slice()
		if s.err != nil {
			return nil, s.err
		}
		// Parents precede their children, so a node's level is at most its id.
		if nd.Level < 0 || nd.Level > i {
			return nil, fmt.Errorf("core: corrupt node %d level %d", i, nd.Level)
		}
		for len(t.Levels) <= nd.Level {
			t.Levels = append(t.Levels, nil)
		}
		t.Levels[nd.Level] = append(t.Levels[nd.Level], i)
		if nd.IsLeaf {
			t.Leaves = append(t.Leaves, i)
		}
	}
	m.Tree = t

	// Generators.
	m.u = make([]*mat.Dense, nNodes)
	m.trans = make([]*mat.Dense, nNodes)
	m.ranks = make([]int, nNodes)
	m.skel = make([][]int, nNodes)
	m.skelPts = make([]*pointset.Points, nNodes)
	if !m.sharedBasis {
		m.v = make([]*mat.Dense, nNodes)
		m.wTrans = make([]*mat.Dense, nNodes)
		m.colRanks = make([]int, nNodes)
		m.colSkel = make([][]int, nNodes)
	}
	for id := 0; id < nNodes; id++ {
		m.ranks[id] = s.readI64()
		m.skel[id] = s.readIntSlice()
		m.u[id] = s.readDense()
		m.trans[id] = s.readDense()
		if !m.sharedBasis {
			m.colRanks[id] = s.readI64()
			m.colSkel[id] = s.readIntSlice()
			m.v[id] = s.readDense()
			m.wTrans[id] = s.readDense()
		}
		if s.err != nil {
			return nil, s.err
		}
	}

	// Sampling hierarchy.
	var hasHier bool
	s.read(&hasHier)
	if hasHier {
		m.hier = &sample.Hierarchy{XStar: make([][]int, nNodes), YStar: make([][]int, nNodes)}
		for id := 0; id < nNodes; id++ {
			m.hier.XStar[id] = s.readIntSlice()
			m.hier.YStar[id] = s.readIntSlice()
		}
	}
	if s.err != nil {
		return nil, s.err
	}

	// Version 5: stored-block section (kernel-less streams only). The blocks
	// arrive verbatim, so no kernel is needed to serve the matrix; a loaded
	// kernel-less matrix gets a placeholder kernel that refuses fresh
	// evaluations but answers Symmetric for the apply's triangular logic.
	blocksFromStream := false
	if version >= 5 {
		var hasBlocks uint8
		s.read(&hasBlocks)
		if hasBlocks == 1 {
			var sym bool
			s.read(&sym)
			coup := readBlockStore(s)
			near := readBlockStore(s)
			if s.err != nil {
				return nil, s.err
			}
			if coup == nil || near == nil {
				return nil, fmt.Errorf("core: kernel-less stream missing stored blocks")
			}
			m.coup, m.near = coup, near
			blocksFromStream = true
			if m.Kern == nil {
				m.Kern = storedOnlyKernel{sym: sym}
			}
		}
	}
	if m.Kern == nil {
		return nil, fmt.Errorf("core: stream names no kernel and carries no stored blocks")
	}

	if version >= 4 {
		if err := s.verifyFooter(); err != nil {
			return nil, err
		}
	}
	if err := m.validateLoaded(blocksFromStream); err != nil {
		return nil, err
	}

	// Rebuild derived state: identity index, skeleton point sets, grids.
	m.allIdx = make([]int, m.N)
	for i := range m.allIdx {
		m.allIdx[i] = i
	}
	if m.Cfg.Kind == Interpolation {
		for id := range t.Nodes {
			m.skelPts[id] = interp.NewGrid(t.Nodes[id].Box, m.Cfg.P).Points()
		}
	} else {
		for id := range t.Nodes {
			m.skelPts[id] = t.Points
		}
	}
	if (m.Cfg.Mode == Normal || m.Cfg.Mode == Hybrid) && !blocksFromStream {
		// Reassemble the stored blocks on a transient build pool, exactly as
		// Build does. Hybrid selection is deterministic, so a round-trip
		// stores the identical block subset. Kernel-less streams skip this:
		// their blocks came off the wire verbatim above.
		m.buildPool = par.NewPool(m.Cfg.Workers)
		m.storeModeBlocks()
		m.buildPool.Close()
		m.buildPool = nil
	}
	m.finishStats()
	return m, nil
}

// validateLoaded checks a deserialized matrix's structure before anything
// is derived from it, so a corrupt stream fails loudly instead of panicking
// or hanging later: the configuration, the tree (a rooted tree whose
// children partition their parent's range, the shape the apply's task graph
// needs for every task to become ready), the generator shapes, the
// skeleton and sample indices, and any stored blocks.
func (m *Matrix) validateLoaded(blocksFromStream bool) error {
	cfg := &m.Cfg
	if cfg.Kind != DataDriven && cfg.Kind != Interpolation {
		return fmt.Errorf("core: corrupt basis kind %d", cfg.Kind)
	}
	if cfg.Mode != Normal && cfg.Mode != OnTheFly && cfg.Mode != Hybrid {
		return fmt.Errorf("core: corrupt memory mode %d", cfg.Mode)
	}
	if blocksFromStream && cfg.Mode != Normal {
		return fmt.Errorf("core: stored-block stream in %v mode", cfg.Mode)
	}
	if v := cfg.Tol; math.IsNaN(v) || v <= 0 {
		return fmt.Errorf("core: corrupt tolerance %g", v)
	}
	if v := cfg.RelTol; math.IsNaN(v) || v < 0 || v >= 1 {
		return fmt.Errorf("core: corrupt reltol %g", v)
	}
	if cfg.StorageBudget < 0 {
		return fmt.Errorf("core: corrupt storage budget %d", cfg.StorageBudget)
	}
	if err := m.validateTree(); err != nil {
		return err
	}

	// Skeleton indices point into the permuted points (data-driven) or the
	// node's p^d Chebyshev grid (interpolation).
	limit := m.N
	if cfg.Kind == Interpolation {
		limit = 1
		for d := 0; d < m.Dim; d++ {
			if cfg.P < 1 || limit > maxSliceLen/cfg.P {
				return fmt.Errorf("core: corrupt interpolation order %d", cfg.P)
			}
			limit *= cfg.P
		}
	}
	t := m.Tree
	for id := range t.Nodes {
		nd := &t.Nodes[id]
		if cfg.Kind == Interpolation && (len(nd.Box.Min) != m.Dim || len(nd.Box.Max) != m.Dim) {
			return fmt.Errorf("core: corrupt bounding box at node %d", id)
		}
		if err := m.validateSide(id, m.skel[id], m.ranks[id], m.u[id], m.trans[id], m.ranks, limit); err != nil {
			return err
		}
		if !m.sharedBasis {
			if err := m.validateSide(id, m.colSkel[id], m.colRanks[id], m.v[id], m.wTrans[id], m.colRanks, limit); err != nil {
				return err
			}
		}
		if cfg.Kind == Interpolation && m.ranks[id] != limit {
			return fmt.Errorf("core: node %d rank %d, interpolation order gives %d", id, m.ranks[id], limit)
		}
	}
	if m.hier != nil {
		for id := range t.Nodes {
			for _, set := range [][]int{m.hier.XStar[id], m.hier.YStar[id]} {
				for _, p := range set {
					if p < 0 || p >= m.N {
						return fmt.Errorf("core: corrupt sample index %d at node %d", p, id)
					}
				}
			}
		}
	}
	if blocksFromStream {
		if err := m.validateStore(m.coup, false); err != nil {
			return err
		}
		return m.validateStore(m.near, true)
	}
	return nil
}

// validateTree checks that the loaded nodes form the tree Build produces:
// node 0 is the root over [0, N); every other node has one parent with a
// smaller id, sits one level below it and is listed among its children
// exactly once; a node is a leaf exactly when it has no children, and the
// children tile their parent's point range in order. Interaction and
// nearfield entries must be node ids.
func (m *Matrix) validateTree() error {
	t := m.Tree
	nNodes := len(t.Nodes)
	if nNodes == 0 {
		return fmt.Errorf("core: corrupt tree with no nodes")
	}
	if root := &t.Nodes[0]; root.Parent != -1 || root.Start != 0 || root.End != m.N {
		return fmt.Errorf("core: corrupt root node")
	}
	listed := make([]int, nNodes)
	for id := range t.Nodes {
		nd := &t.Nodes[id]
		if id > 0 {
			if nd.Parent < 0 || nd.Parent >= id || nd.Level != t.Nodes[nd.Parent].Level+1 {
				return fmt.Errorf("core: corrupt parent %d at node %d", nd.Parent, id)
			}
		}
		if nd.IsLeaf != (len(nd.Children) == 0) {
			return fmt.Errorf("core: corrupt leaf flag at node %d", id)
		}
		next := nd.Start
		for _, c := range nd.Children {
			if c <= id || c >= nNodes || t.Nodes[c].Parent != id || t.Nodes[c].Start != next {
				return fmt.Errorf("core: corrupt child %d of node %d", c, id)
			}
			listed[c]++
			next = t.Nodes[c].End
		}
		if nd.Start < 0 || nd.Start > nd.End || (!nd.IsLeaf && next != nd.End) {
			return fmt.Errorf("core: corrupt node %d range [%d,%d)", id, nd.Start, nd.End)
		}
		for _, list := range [][]int{nd.Interaction, nd.Near} {
			for _, j := range list {
				if j < 0 || j >= nNodes {
					return fmt.Errorf("core: corrupt list entry %d at node %d", j, id)
				}
			}
		}
	}
	for id := 1; id < nNodes; id++ {
		if listed[id] != 1 {
			return fmt.Errorf("core: node %d listed as a child %d times", id, listed[id])
		}
	}
	return nil
}

// validateSide checks one generator side of node id: the skeleton matches
// the rank and indexes below limit, a leaf basis is size x rank, and an
// internal node's stacked transfer is (sum of child ranks) x rank.
func (m *Matrix) validateSide(id int, skel []int, rank int, basis, trans *mat.Dense, ranks []int, limit int) error {
	if len(skel) != rank {
		return fmt.Errorf("core: node %d skeleton/rank mismatch", id)
	}
	for _, p := range skel {
		if p < 0 || p >= limit {
			return fmt.Errorf("core: corrupt skeleton index %d at node %d", p, id)
		}
	}
	nd := &m.Tree.Nodes[id]
	if nd.IsLeaf {
		if basis == nil || basis.Rows != nd.Size() || basis.Cols != rank {
			return fmt.Errorf("core: corrupt leaf basis at node %d", id)
		}
		return nil
	}
	rows := 0
	for _, c := range nd.Children {
		rows += ranks[c]
	}
	if trans == nil || trans.Rows != rows || trans.Cols != rank {
		return fmt.Errorf("core: corrupt transfer block at node %d", id)
	}
	return nil
}

// validateStore checks a stored-block section: a CSR index over node ids
// with ascending columns per row, and every block shaped as the (i, j)
// coupling block (row rank x column rank) or, for near, the nearfield block
// (leaf sizes). A triangular store keeps only i <= j and mirrors the rest,
// which for coupling blocks needs shared bases.
func (m *Matrix) validateStore(bs *BlockStore, near bool) error {
	nNodes := len(m.Tree.Nodes)
	if len(bs.rowPtr) > nNodes+1 || (len(bs.rowPtr) > 0 && bs.rowPtr[0] != 0) {
		return fmt.Errorf("core: corrupt block index")
	}
	if !bs.directed && !near && !m.sharedBasis {
		return fmt.Errorf("core: triangular coupling store with separate column bases")
	}
	for i := 0; i+1 < len(bs.rowPtr); i++ {
		lo, hi := bs.rowPtr[i], bs.rowPtr[i+1]
		if lo > hi {
			return fmt.Errorf("core: corrupt block index")
		}
		for k := lo; k < hi; k++ {
			j := int(bs.colIdx[k])
			if j < 0 || j >= nNodes || (k > lo && bs.colIdx[k-1] >= bs.colIdx[k]) || (!bs.directed && i > j) {
				return fmt.Errorf("core: corrupt block key (%d, %d)", i, j)
			}
			rows, cols := m.ranks[i], m.colRank(j)
			if near {
				rows, cols = m.Tree.Nodes[i].Size(), m.Tree.Nodes[j].Size()
			}
			if b := &bs.hdr[k]; b.Rows != rows || b.Cols != cols {
				return fmt.Errorf("core: stored block (%d, %d) is %dx%d, want %dx%d", i, j, b.Rows, b.Cols, rows, cols)
			}
		}
	}
	return nil
}
