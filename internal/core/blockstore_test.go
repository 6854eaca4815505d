package core

import (
	"math"
	"sync"
	"testing"

	"h2ds/internal/mat"
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

func TestBlockStoreApplyDirectAndTransposed(t *testing.T) {
	s := NewBlockStore()
	b := mat.NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	s.Put(1, 5, b)
	q := []float64{1, -1, 2}
	g := make([]float64, 2)
	if !s.applyVec(g, 1, 5, q, false, false) {
		t.Fatal("apply missed stored block")
	}
	if g[0] != 1*1-2+3*2 || g[1] != 4-5+6*2 {
		t.Fatalf("direct apply wrong: %v", g)
	}
	// Transposed: B_{5,1} = Bᵀ.
	q2 := []float64{1, 1}
	g2 := make([]float64, 3)
	if !s.applyVec(g2, 5, 1, q2, false, false) {
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
	if s.applyVec(g3, 9, 9, []float64{1}, false, false) {
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
				s.applyVec(g, i, i+1, []float64{1}, false, false)
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
	if !s.applyBatch(g, 1, 5, q, false) {
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
	if !s.applyBatch(g2, 5, 1, q2, false) {
		t.Fatal("transposed batch apply missed")
	}
	wantT := mat.Mul(b.T(), q2)
	for i := range wantT.Data {
		if math.Abs(g2.Data[i]-wantT.Data[i]) > 1e-15 {
			t.Fatalf("transposed batch apply wrong: %v want %v", g2.Data, wantT.Data)
		}
	}
	if s.applyBatch(mat.NewDense(1, 2), 9, 9, mat.NewDense(1, 2), false) {
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
