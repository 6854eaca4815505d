package core

import (
	"math"
	"sync"
	"testing"

	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/pointset"
)

func TestBlockStorePutGet(t *testing.T) {
	s := NewBlockStore()
	b1 := mat.NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	s.Put(1, 5, b1)
	if got := s.Get(1, 5); got != b1 {
		t.Fatal("Get did not return stored block")
	}
	if s.Get(5, 1) != nil {
		t.Fatal("reversed key must miss (caller handles transpose)")
	}
	if s.Get(2, 3) != nil {
		t.Fatal("missing key must return nil")
	}
	if s.Len() != 1 {
		t.Fatalf("Len %d", s.Len())
	}
}

func TestBlockStorePutOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for i > j")
		}
	}()
	NewBlockStore().Put(3, 1, mat.NewDense(1, 1))
}

// colPanel wraps v as a v-length single-column panel (shared backing).
func colPanel(v []float64) *mat.Dense { return mat.NewDenseData(len(v), 1, v) }

func TestBlockStoreApplyDirectAndTransposed(t *testing.T) {
	s := NewBlockStore()
	b := mat.NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	s.Put(1, 5, b)
	q := []float64{1, -1, 2}
	g := make([]float64, 2)
	if !s.apply(colPanel(g), 1, 5, colPanel(q), false, false) {
		t.Fatal("apply missed stored block")
	}
	if g[0] != 1*1-2+3*2 || g[1] != 4-5+6*2 {
		t.Fatalf("direct apply wrong: %v", g)
	}
	// Transposed: B_{5,1} = Bᵀ.
	q2 := []float64{1, 1}
	g2 := make([]float64, 3)
	if !s.apply(colPanel(g2), 5, 1, colPanel(q2), false, false) {
		t.Fatal("transposed apply missed")
	}
	want := []float64{5, 7, 9}
	for i := range want {
		if math.Abs(g2[i]-want[i]) > 1e-15 {
			t.Fatalf("transposed apply wrong: %v", g2)
		}
	}
	// Missing block reports false and leaves g untouched.
	g3 := []float64{7}
	if s.apply(colPanel(g3), 9, 9, colPanel([]float64{1}), false, false) {
		t.Fatal("apply on missing block must return false")
	}
	if g3[0] != 7 {
		t.Fatal("missing apply must not modify g")
	}
}

func TestBlockStoreConcurrentPut(t *testing.T) {
	s := NewBlockStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				i := w*50 + k
				s.Put(i, i+1, mat.NewDense(1, 1))
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 400 {
		t.Fatalf("Len %d want 400", s.Len())
	}
	for i := 0; i < 400; i++ {
		if s.Get(i, i+1) == nil {
			t.Fatalf("lost block (%d,%d)", i, i+1)
		}
	}
}

func TestBlockStoreConcurrentPutGet(t *testing.T) {
	// Readers overlap writers during the construction phase — this is the
	// race the RWMutex closes; run with -race to verify.
	s := NewBlockStore()
	var wg sync.WaitGroup
	const writers, perWriter = 4, 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWriter; k++ {
				i := w*perWriter + k
				s.Put(i, i+1, mat.NewDenseData(1, 1, []float64{float64(i)}))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := make([]float64, 1)
			for k := 0; k < 2000; k++ {
				i := k % (writers * perWriter)
				if b := s.Get(i, i+1); b != nil && b.Data[0] != float64(i) {
					t.Errorf("block (%d,%d) has wrong payload %g", i, i+1, b.Data[0])
					return
				}
				s.apply(colPanel(g), i, i+1, colPanel([]float64{1}), false, false)
				_ = s.Len()
				_ = s.Bytes()
				_ = s.MaxBlockBytes()
			}
		}()
	}
	wg.Wait()
	if s.Len() != writers*perWriter {
		t.Fatalf("Len %d want %d", s.Len(), writers*perWriter)
	}
}

func TestBlockStoreFreeze(t *testing.T) {
	s := NewBlockStore()
	s.Put(0, 1, mat.NewDenseData(1, 1, []float64{2}))
	s.Freeze()
	if s.Get(0, 1) == nil || s.Len() != 1 {
		t.Fatal("frozen reads must still see stored blocks")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Put after Freeze")
		}
	}()
	s.Put(0, 2, mat.NewDense(1, 1))
}

func TestBlockStoreApplyBatch(t *testing.T) {
	s := NewBlockStore()
	b := mat.NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	s.Put(1, 5, b)
	q := mat.NewDenseData(3, 2, []float64{1, 0, -1, 1, 2, -2})
	g := mat.NewDense(2, 2)
	if !s.apply(g, 1, 5, q, false, false) {
		t.Fatal("batch apply missed stored block")
	}
	want := mat.Mul(b, q)
	for i := range want.Data {
		if math.Abs(g.Data[i]-want.Data[i]) > 1e-15 {
			t.Fatalf("batch apply wrong: %v want %v", g.Data, want.Data)
		}
	}
	// Transposed direction.
	q2 := mat.NewDenseData(2, 2, []float64{1, -1, 1, 2})
	g2 := mat.NewDense(3, 2)
	if !s.apply(g2, 5, 1, q2, false, false) {
		t.Fatal("transposed batch apply missed")
	}
	wantT := mat.Mul(b.T(), q2)
	for i := range wantT.Data {
		if math.Abs(g2.Data[i]-wantT.Data[i]) > 1e-15 {
			t.Fatalf("transposed batch apply wrong: %v want %v", g2.Data, wantT.Data)
		}
	}
	if s.apply(mat.NewDense(1, 2), 9, 9, mat.NewDense(1, 2), false, false) {
		t.Fatal("batch apply on missing block must return false")
	}
}

func TestBlockStoreBytes(t *testing.T) {
	s := NewBlockStore()
	if s.Bytes() != 0 || s.MaxBlockBytes() != 0 {
		t.Fatal("empty store must report zero")
	}
	s.Put(0, 1, mat.NewDense(10, 10))
	s.Put(0, 2, mat.NewDense(5, 4))
	if s.Bytes() < 120*8 {
		t.Fatalf("Bytes %d too small", s.Bytes())
	}
	if s.MaxBlockBytes() != 100*8 {
		t.Fatalf("MaxBlockBytes %d want %d", s.MaxBlockBytes(), 100*8)
	}
}

// TestEmptyFrozenStoreReportsZeroBytes: a store frozen with no blocks —
// built empty, preallocated empty, or a hybrid build at budget 0 — holds
// nothing and must say so; the registry's reclaim loop reads these bytes to
// decide whether a tenant still has storage to shed.
func TestEmptyFrozenStoreReportsZeroBytes(t *testing.T) {
	s := NewBlockStore()
	s.Freeze()
	p := NewBlockStore()
	p.Preallocate(nil)
	p.Freeze()
	if s.Bytes() != 0 || p.Bytes() != 0 {
		t.Fatalf("empty frozen stores report %d and %d bytes", s.Bytes(), p.Bytes())
	}
	m, err := Build(pointset.Cube(500, 3, 81), kernel.Coulomb{},
		Config{Kind: DataDriven, Mode: Hybrid, StorageBudget: 0, Tol: 1e-4, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, mm := range []*Matrix{m, m.WithStorageBudget(0)} {
		if mem := mm.Memory(); mem.Coupling != 0 || mem.Nearfield != 0 {
			t.Fatalf("block-free hybrid reports Coupling=%d Nearfield=%d", mem.Coupling, mem.Nearfield)
		}
	}
}
