package main

import (
	"fmt"
	"runtime"
	"time"

	"h2ds/internal/core"
	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/pointset"
	"h2ds/internal/solver"
)

// solveSigma is the regularization of the exp-kernel system (K + σI).
const solveSigma = 100

// hybridSetup is one cold set-up of solve-hybrid.
type hybridSetup struct {
	m       *core.Matrix
	bj      *core.BlockJacobi
	buildMS float64
	probe   []float64 // the first apply's answer
}

// setupHybrid runs the cold core.Build, the first apply (build start to
// first answer is ready_s), the block-Jacobi factorization and a warm-up
// apply of each operator.
func setupHybrid(pts *pointset.Points, k kernel.Pairwise, c core.Config, probe []float64) (*hybridSetup, float64, error) {
	t0 := time.Now()
	m, err := core.Build(pts, k, c)
	if err != nil {
		return nil, 0, fmt.Errorf("build: %w", err)
	}
	buildMS := ms(time.Since(t0))
	y := make([]float64, m.N)
	m.ApplyTo(y, probe)
	ready := time.Since(t0).Seconds()
	first := append([]float64(nil), y...)
	bj, err := m.BlockJacobi(solveSigma)
	if err != nil {
		return nil, 0, fmt.Errorf("block-Jacobi: %w", err)
	}
	bj.ApplyTo(y, probe)
	m.ApplyTo(y, probe)
	runtime.GC()
	return &hybridSetup{m: m, bj: bj, buildMS: buildMS, probe: first}, ready, nil
}

// solveRun is one timed PCG solve.
type solveRun struct {
	res    solver.Result
	rhs    []float64
	wall   time.Duration
	traced bool
}

func runSolveHybrid(cfg config) (*outcome, error) {
	oc := newOutcome()
	var rec *recorder
	if cfg.trace {
		oc.zeroLayers()
		rec = newRecorder()
		oc.rec = rec
		hostRoofs(oc, cfg.sz.hostBytes)
	}
	n := cfg.sz.solveN
	pts, _ := pointset.Named("cube", n, 3, geometrySeed)
	k, _ := kernel.ByName("exp")
	c := core.Config{
		Mode: core.Hybrid, StorageBudget: cfg.sz.hybridBudget,
		Tol: buildTol, LeafSize: cfg.sz.leaf, Workers: 2,
	}
	probe := seededVec(n, cfg.seed, 0)

	// Every cold build must answer the probe bit for bit alike: the build
	// and the apply are deterministic.
	cor := newCorrupter(cfg.corrupt)
	var s *hybridSetup
	var first []float64
	var setups, readys []float64
	for rep := 0; rep < cfg.sz.setupReps; rep++ {
		s = nil
		freeMemory()
		t0 := time.Now()
		ns, ready, err := setupHybrid(pts, k, c, probe)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		readys = append(readys, ready)
		s = ns
		oc.attempted++
		if first == nil {
			first = s.probe
		} else if !bitsEqual(cor.maybe(s.probe), first) {
			oc.gate("cold build %d answers the probe differently from build 0", rep)
		}
	}
	oc.values["setup_s"] = median(setups)
	oc.values["ready_s"] = median(readys)
	oc.detail["setup_s_each"] = setups
	oc.detail["ready_s_each"] = readys
	m := s.m
	mem := m.Memory()
	oc.values["matrix_mib"] = mib(mem.Total())
	full := fullStoreBytes(m)
	oc.detail["hybrid_stored_share_computed"] = float64(mem.Coupling+mem.Nearfield) / full

	// The window: PCG solves of (K + σI)x = b on fresh seeded right-hand
	// sides until the window is spent. A traced run alternates untraced
	// and traced solves (at least one of each).
	var lat []float64
	var runs []solveRun
	var sw0, sw1 core.SweepStats
	start := time.Now()
	for j := 0; ; j++ {
		traced := cfg.trace && j%2 == 1
		if traced {
			sw0 = m.SweepStats()
			rec.on.Store(true)
		}
		runs = append(runs, solveOnce(m, s.bj, seededVec(n, cfg.seed, int64(2000+j)), rec, &lat, traced))
		if traced {
			rec.on.Store(false)
			sw1 = sweepDelta(sw0, m.SweepStats())
		}
		if time.Since(start).Seconds() >= cfg.seconds && (!cfg.trace || j >= 1) {
			break
		}
	}
	var walls, plainWalls, tracedWalls []float64
	var iters []int
	for _, r := range runs {
		walls = append(walls, r.wall.Seconds())
		iters = append(iters, r.res.Iterations)
		if r.traced {
			tracedWalls = append(tracedWalls, r.wall.Seconds())
		} else {
			plainWalls = append(plainWalls, r.wall.Seconds())
		}
	}
	oc.detail["solve_sigma"] = float64(solveSigma)
	oc.detail["solve_iterations"] = iters
	oc.detail["solve_s_each"] = walls
	if !cfg.trace {
		oc.values["solve_s"] = median(walls)
		oc.latencyMetrics(lat)
		var total float64
		for _, w := range walls {
			total += w
		}
		oc.values["throughput_rps"] = float64(len(lat)) / total
	}
	oc.attempted += int64(len(lat))

	// Gates: every solve converged, residual re-checked with a fresh
	// apply; relerr over the seeded vectors against exact kernel rows.
	for _, r := range runs {
		checkSolve(oc, r.res, r.rhs, func(x []float64) []float64 {
			y := m.Apply(x)
			for i := range y {
				y[i] += solveSigma * x[i]
			}
			return y
		})
	}
	bs := accuracyProbes(n, cfg.sz.pool)
	ys := applyColumns(m, bs)
	lo, mean, hi := relErrStats(pts, k, bs, ys, cfg.sz.errRows, geometrySeed)
	relerrGateCheck(oc, lo, mean, hi)

	if cfg.trace {
		sum := rec.summary()
		tile := tileEvalsPerSec(k, pts, 300*time.Millisecond)
		coreLayers(oc, sw1, float64(mem.Coupling+mem.Nearfield), fullEvals(m), tile)
		buildLayers(oc, s.buildMS, m.Stats().Phases)
		last := runs[len(runs)-1]
		for _, r := range runs {
			if r.traced {
				last = r
			}
		}
		oc.values["solver.iterations"] = float64(last.res.Iterations)
		oc.values["solver.precond_ms"] = sum["solver.precond"].MeanMS
		oc.values["solver.apply_share"] = sum["core.apply"].SumMS / (1e3 * sumOf(tracedWalls))
		oc.values["trace.unaccounted_ms"] = sum["solver.solve"].SelfMS
		oc.values["trace.overhead_ratio"] = mean1(plainWalls) / mean1(tracedWalls)
		s, m = nil, nil
		freeMemory()
		oc.values["par.apply_speedup_w2"] = applySpeedup(pts, k, c, probe)
	}
	rss, err := rssPeakMiB()
	if err != nil {
		return nil, err
	}
	oc.values["rss_peak_mib"] = rss
	return oc, nil
}

// solveOnce runs one PCG solve, timing every operator apply into lat and,
// when traced, recording spans around the solve, each operator apply and
// each preconditioner apply.
func solveOnce(m *core.Matrix, bj *core.BlockJacobi, rhs []float64, rec *recorder, lat *[]float64, traced bool) solveRun {
	if !traced {
		rec = nil
	}
	req := rec.newReq()
	root := rec.begin("solver.solve", 0, req)
	a := solver.Func(func(y, b []float64) {
		sp := rec.begin("core.apply", root.id, req)
		t0 := time.Now()
		m.ApplyTo(y, b)
		for i := range y {
			y[i] += solveSigma * b[i]
		}
		*lat = append(*lat, ms(time.Since(t0)))
		rec.end(sp)
	})
	p := solver.Func(func(y, b []float64) {
		sp := rec.begin("solver.precond", root.id, req)
		bj.ApplyTo(y, b)
		rec.end(sp)
	})
	t0 := time.Now()
	res := solver.PCG(a, p, rhs, solveTol, maxSolveIter)
	wall := time.Since(t0)
	rec.end(root)
	return solveRun{res: res, rhs: rhs, wall: wall, traced: traced}
}

// applyColumns applies m to every vector with one batched product.
func applyColumns(m *core.Matrix, bs [][]float64) [][]float64 {
	n, k := m.N, len(bs)
	B := mat.NewDense(n, k)
	for j, b := range bs {
		for i, v := range b {
			B.Data[i*k+j] = v
		}
	}
	Y := m.ApplyBatch(B)
	ys := make([][]float64, k)
	for j := range ys {
		ys[j] = make([]float64, n)
		for i := range ys[j] {
			ys[j][i] = Y.Data[i*k+j]
		}
	}
	return ys
}

// fullStoreBytes is the computed size of every coupling and nearfield
// block, stored once per undirected pair as the block store holds them.
func fullStoreBytes(m *core.Matrix) float64 {
	ranks := m.NodeRanks()
	var b float64
	for i := range m.Tree.Nodes {
		nd := &m.Tree.Nodes[i]
		for _, j := range nd.Interaction {
			if j >= i {
				b += 8 * float64(ranks[i]) * float64(ranks[j])
			}
		}
		for _, j := range nd.Near {
			if j >= i {
				b += 8 * float64(nd.Size()) * float64(m.Tree.Nodes[j].Size())
			}
		}
	}
	return b
}

func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean1(xs []float64) float64 { return sumOf(xs) / float64(len(xs)) }
