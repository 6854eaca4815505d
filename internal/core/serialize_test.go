package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"

	"h2ds/internal/kernel"
	"h2ds/internal/pointset"
)

func roundTrip(t *testing.T, m *Matrix, k kernel.Pairwise) *Matrix {
	t.Helper()
	var buf bytes.Buffer
	n, err := m.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	m2, err := Read(&buf, k)
	if err != nil {
		t.Fatal(err)
	}
	return m2
}

func TestSerializeRoundTripDataDriven(t *testing.T) {
	pts := pointset.Cube(1500, 3, 90)
	b := randVec(1500, 91)
	for _, mode := range []MemoryMode{Normal, OnTheFly} {
		m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: mode, Tol: 1e-6, LeafSize: 60})
		if err != nil {
			t.Fatal(err)
		}
		m2 := roundTrip(t, m, kernel.Coulomb{})
		y1 := m.Apply(b)
		y2 := m2.Apply(b)
		for i := range y1 {
			if y1[i] != y2[i] {
				t.Fatalf("mode %v: loaded matrix differs at %d: %g vs %g", mode, i, y1[i], y2[i])
			}
		}
		if m2.Stats().MaxRank != m.Stats().MaxRank || m2.Stats().Leaves != m.Stats().Leaves {
			t.Fatalf("mode %v: stats differ after round trip", mode)
		}
		if m2.Hierarchy() == nil {
			t.Fatal("hierarchy lost in round trip")
		}
	}
}

func TestSerializeRoundTripInterpolation(t *testing.T) {
	pts := pointset.Cube(1000, 2, 92)
	b := randVec(1000, 93)
	m, err := Build(pts, kernel.Exponential{}, Config{Kind: Interpolation, Mode: OnTheFly, Tol: 1e-5, LeafSize: 80})
	if err != nil {
		t.Fatal(err)
	}
	m2 := roundTrip(t, m, kernel.Exponential{})
	y1 := m.Apply(b)
	y2 := m2.Apply(b)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("loaded interpolation matrix differs at %d", i)
		}
	}
}

func TestSerializeRoundTripUnsymmetric(t *testing.T) {
	pts := pointset.Cube(900, 3, 94)
	b := randVec(900, 95)
	k := drift3()
	m, err := Build(pts, k, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-5, LeafSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	m2 := roundTrip(t, m, k)
	y1 := m.Apply(b)
	y2 := m2.Apply(b)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("loaded unsymmetric matrix differs at %d", i)
		}
	}
}

func TestReadAnyResolvesKernel(t *testing.T) {
	pts := pointset.Cube(800, 3, 89)
	b := randVec(800, 88)
	m, err := Build(pts, kernel.Gaussian{Scale: 0.1}, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-5, LeafSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadAny(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Kern.Name(); got != "gaussian" {
		t.Fatalf("resolved kernel %q, want gaussian", got)
	}
	y1, y2 := m.Apply(b), m2.Apply(b)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("ReadAny matrix differs at %d: %g vs %g", i, y1[i], y2[i])
		}
	}
}

func TestReadAnyUnknownKernel(t *testing.T) {
	pts := pointset.Cube(300, 3, 87)
	// An unregistered kernel serializes fine but cannot be resolved by name.
	m, err := Build(pts, drift3(), Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-4, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAny(&buf); err == nil || !strings.Contains(err.Error(), "unknown kernel") {
		t.Fatalf("expected unknown-kernel error, got %v", err)
	}
}

func TestSerializeKernelMismatch(t *testing.T) {
	pts := pointset.Cube(300, 3, 96)
	m, err := Build(pts, kernel.Coulomb{}, Config{Tol: 1e-4, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf, kernel.Gaussian{Scale: 0.1}); err == nil || !strings.Contains(err.Error(), "kernel") {
		t.Fatalf("expected kernel mismatch error, got %v", err)
	}
}

func TestSerializeRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not an h2ds file at all")), kernel.Coulomb{}); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(bytes.NewReader(nil), kernel.Coulomb{}); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestSerializeTruncatedStream(t *testing.T) {
	pts := pointset.Cube(400, 3, 97)
	m, err := Build(pts, kernel.Coulomb{}, Config{Tol: 1e-4, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, frac := range []int{2, 4, 10} {
		cut := full[:len(full)/frac]
		if _, err := Read(bytes.NewReader(cut), kernel.Coulomb{}); err == nil {
			t.Fatalf("truncated stream (1/%d) accepted", frac)
		}
	}
}

// TestSerializeDetectsFlippedBytes is the torn/corrupt-transfer test for the
// v4 checksum footer: flipping any single byte of a valid stream — including
// deep inside the float payload, where every pre-v4 format version would
// deserialize silently — must be rejected.
func TestSerializeDetectsFlippedBytes(t *testing.T) {
	pts := pointset.Cube(500, 3, 99)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-4, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// A spread of offsets across the stream: the version word, coordinate
	// float payload (offsets 200 and 1000 sit inside the 12000-byte coords
	// block, low-order mantissa bytes a value check can never catch), and
	// both halves of the footer. Offsets inside length headers are avoided —
	// they fail too, but via over-long reads rather than the CRC.
	offsets := []int{13, 200, 1000, len(full) - 6, len(full) - 3}
	for _, off := range offsets {
		corrupt := append([]byte(nil), full...)
		corrupt[off] ^= 0x01
		if _, err := Read(bytes.NewReader(corrupt), kernel.Coulomb{}); err == nil {
			t.Fatalf("flipped byte at offset %d/%d accepted", off, len(full))
		}
	}
	// Dropping the footer (a torn write that lost the tail) must also fail.
	if _, err := Read(bytes.NewReader(full[:len(full)-8]), kernel.Coulomb{}); err == nil {
		t.Fatal("stream with missing footer accepted")
	}
	// The untouched stream still loads.
	if _, err := Read(bytes.NewReader(full), kernel.Coulomb{}); err != nil {
		t.Fatalf("pristine stream rejected: %v", err)
	}
}

// TestReadV3StreamCompat strips the v4 footer and patches the version word
// down to 3: pre-checksum streams (existing spill files) must keep loading,
// just without integrity verification.
func TestReadV3StreamCompat(t *testing.T) {
	pts := pointset.Cube(400, 3, 100)
	b := randVec(400, 101)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-4, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	v3 := append([]byte(nil), raw[:len(raw)-8]...)
	v3[8+4] = 3 // little-endian uint32 version 4 -> 3 (after 8+4 byte magic string)
	m2, err := Read(bytes.NewReader(v3), kernel.Coulomb{})
	if err != nil {
		t.Fatalf("v3 stream rejected: %v", err)
	}
	y1, y2 := m.Apply(b), m2.Apply(b)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("v3-compat matrix differs at %d", i)
		}
	}
}

func TestSerializeCorruptPermutation(t *testing.T) {
	pts := pointset.Cube(200, 2, 98)
	m, err := Build(pts, kernel.Coulomb{}, Config{Tol: 1e-4, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a permutation entry in the live structure and re-serialize:
	// Read must reject it.
	m.Tree.Perm[0] = 999999
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf, kernel.Coulomb{}); err == nil {
		t.Fatal("corrupt permutation accepted")
	}
}

// TestReadHugeLengthPrefixBoundedAlloc feeds truncated streams whose length
// prefixes declare huge string, float and int slices. Each must fail, and
// the reader may allocate only what the bytes it received justify, not the
// declared length.
func TestReadHugeLengthPrefixBoundedAlloc(t *testing.T) {
	m, err := Build(pointset.Cube(300, 3, 98), kernel.Coulomb{}, Config{Tol: 1e-4, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	le := binary.LittleEndian
	// The coordinate slice's length prefix follows N and Dim, and the
	// permutation's follows the coordinates.
	var pat [24]byte
	le.PutUint64(pat[0:], uint64(m.N))
	le.PutUint64(pat[8:], uint64(m.Dim))
	le.PutUint64(pat[16:], uint64(m.N*m.Dim))
	coordsLen := bytes.Index(full, pat[:]) + 16
	if coordsLen < 16 {
		t.Fatal("coordinate length prefix not found")
	}
	permLen := coordsLen + 8 + 8*m.N*m.Dim
	if got := le.Uint64(full[permLen:]); got != uint64(m.N) {
		t.Fatalf("permutation length prefix reads %d want %d", got, m.N)
	}
	huge := func(at int, n uint64) []byte {
		out := append([]byte(nil), full[:at+8]...)
		le.PutUint64(out[at:], n)
		return append(out, 1, 2, 3, 4, 5, 6, 7, 8)
	}
	magic := make([]byte, 8)
	le.PutUint64(magic, 1<<30)
	for _, tc := range []struct {
		name   string
		stream []byte
	}{
		{"string", magic},
		{"float64s", huge(coordsLen, 1<<32)},
		{"ints", huge(permLen, 1<<32)},
	} {
		// A bytes.Reader tells its length; the wrapper hides it, so the
		// reader must grow in chunks instead.
		for _, src := range []struct {
			name string
			r    io.Reader
		}{
			{"sized", bytes.NewReader(tc.stream)},
			{"unsized", struct{ io.Reader }{bytes.NewReader(tc.stream)}},
		} {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			_, err := ReadAny(src.r)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s/%s: truncated stream accepted", tc.name, src.name)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d > 16<<20 {
				t.Fatalf("%s/%s: reading %d bytes allocated %d bytes", tc.name, src.name, len(tc.stream), d)
			}
		}
	}
}

// TestReadSizedStreamAllocatesOnce checks that a slice read from a stream
// of known length is allocated once, whole, while the same bytes from a
// source of unknown length grow in chunks to at most twice the slice. Both
// also allocate one chunk-sized decode buffer per chunk (binary.Read), in
// all as much again as the slice.
func TestReadSizedStreamAllocatesOnce(t *testing.T) {
	const n = 1 << 20
	var buf bytes.Buffer
	w := &serialWriter{w: bufio.NewWriter(&buf)}
	w.writeF64Slice(make([]float64, n))
	if w.err == nil {
		w.err = w.w.Flush()
	}
	if w.err != nil {
		t.Fatal(w.err)
	}
	for _, tc := range []struct {
		name  string
		r     io.Reader
		limit float64 // allocation bound in units of the slice's 8n bytes
	}{
		{"sized", bytes.NewReader(buf.Bytes()), 2.05},
		{"unsized", struct{ io.Reader }{bytes.NewReader(buf.Bytes())}, 3.05},
	} {
		s := newSerialReader(tc.r)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		v := s.readF64Slice()
		runtime.ReadMemStats(&after)
		if s.err != nil || len(v) != n || cap(v) != n {
			t.Fatalf("%s: read len %d cap %d err %v", tc.name, len(v), cap(v), s.err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; float64(d) > tc.limit*8*n {
			t.Fatalf("%s: reading %d floats allocated %d bytes", tc.name, n, d)
		}
	}
}
