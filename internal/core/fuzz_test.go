package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"h2ds/internal/kernel"
	"h2ds/internal/oracle"
	"h2ds/internal/pointset"
)

// fuzzStreamVersions rewrites a current (v5) stream of a named-kernel matrix
// into every older readable layout, mirroring the compat tests: v4 drops the
// empty stored-block flag (re-sealing the footer), v3 drops the footer, v2
// the RelTol/EstRelErr pair and v1 the storage budget.
func fuzzStreamVersions(v5 []byte, kname string) [][]byte {
	const verOff = 8 + 4
	body := append([]byte(nil), v5[:len(v5)-8]...)
	seal := func(b []byte) []byte {
		var foot [8]byte
		copy(foot[:4], serialFooterMagic)
		binary.LittleEndian.PutUint32(foot[4:], crc32.ChecksumIEEE(b))
		return append(b, foot[:]...)
	}
	withVersion := func(b []byte, v uint32) []byte {
		b = append([]byte(nil), b...)
		binary.LittleEndian.PutUint32(b[verOff:], v)
		return b
	}
	v4 := seal(withVersion(body[:len(body)-1], 4))
	v3 := withVersion(body[:len(body)-1], 3)
	budgetOff := verOff + 4 + 8 + len(kname) + 1 + 1 + 8*5
	v2 := withVersion(append(append([]byte(nil), v3[:budgetOff+8]...), v3[budgetOff+8+16:]...), 2)
	v1 := withVersion(append(append([]byte(nil), v2[:budgetOff]...), v2[budgetOff+8:]...), 1)
	return [][]byte{v5, v4, v3, v2, v1}
}

// FuzzReadAny feeds arbitrary bytes to ReadAny, seeded with small streams in
// every readable version (v1–v5, named-kernel and kernel-less, data-driven
// and interpolation). Whatever the input, ReadAny must not panic, and a
// stream it accepts must yield a matrix whose Apply runs.
func FuzzReadAny(f *testing.F) {
	write := func(m *Matrix) []byte {
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	add := func(streams ...[]byte) {
		for _, s := range streams {
			if _, err := ReadAny(bytes.NewReader(s)); err != nil {
				f.Fatalf("seed stream rejected: %v", err)
			}
			f.Add(s)
		}
	}
	pts := pointset.Cube(120, 3, 7)
	for _, cfg := range []Config{
		{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-3, LeafSize: 30, RelTol: 1e-3},
		{Kind: DataDriven, Mode: Normal, Tol: 1e-3, LeafSize: 30},
		{Kind: DataDriven, Mode: Hybrid, StorageBudget: 8 << 10, Tol: 1e-3, LeafSize: 30},
	} {
		m, err := Build(pts, kernel.Coulomb{}, cfg)
		if err != nil {
			f.Fatal(err)
		}
		add(fuzzStreamVersions(write(m), m.Kern.Name())...)
	}
	m, err := Build(pointset.Cube(90, 2, 8), kernel.Gaussian{},
		Config{Kind: Interpolation, Mode: OnTheFly, Tol: 1e-2, LeafSize: 30})
	if err != nil {
		f.Fatal(err)
	}
	add(fuzzStreamVersions(write(m), m.Kern.Name())...)
	const n = 80
	data := make([]float64, n*n)
	opts := pointset.Cube(n, 3, 9)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			data[i*n+j] = kernel.Gaussian{}.EvalPair(opts.At(i), opts.At(j))
		}
	}
	src, err := oracle.NewDense(n, data, true)
	if err != nil {
		f.Fatal(err)
	}
	mo, err := BuildOracle(src, Config{Tol: 1e-4, LeafSize: 20, Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	add(write(mo))

	f.Fuzz(func(t *testing.T, stream []byte) {
		m, err := ReadAny(bytes.NewReader(stream))
		if err != nil {
			return
		}
		b := make([]float64, m.N)
		for i := range b {
			b[i] = float64(i%7) - 3
		}
		m.Apply(b)
	})
}
