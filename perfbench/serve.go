package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"h2ds/internal/api"
	"h2ds/internal/core"
	"h2ds/internal/kernel"
	"h2ds/internal/pointset"
	"h2ds/internal/registry"
	"h2ds/internal/solver"
)

// serveTenant is the instance name serve-normal creates.
const serveTenant = "field"

// serveSigma shifts the Coulomb system (K + σI). The zero-diagonal 1/r
// matrix is indefinite and a close point pair can keep K + σI indefinite,
// so the service solve uses GMRES, not CG.
const (
	serveSigma   = 1000
	gmresRestart = 40
)

// serveEnv is one set-up of serve-normal: a registry behind the real api
// mux on a loopback listener, plus the client that talks to it.
type serveEnv struct {
	reg  *registry.Registry
	srv  *server
	hc   *http.Client
	body *sumCounter
}

func (e *serveEnv) close() {
	e.hc.CloseIdleConnections()
	e.srv.stop()
	e.reg.Close()
}

func (e *serveEnv) applyURL() string { return e.srv.base + "/matrices/" + serveTenant + "/apply" }

// freeMemory returns a torn-down set-up's memory before the next one.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// startServe brings serve-normal up: registry, mux, listener, an HTTP
// create, the first apply (its answer time is ready_s), and warm-up
// traffic on both client connections so keep-alive connections, the
// batcher, workspace pools and the scheduler graph exist before timing.
func startServe(cfg config, spec registry.BuildSpec, pool [][]float64, rec *recorder) (*serveEnv, float64, error) {
	reg := registry.New(registry.Config{})
	mux := http.NewServeMux()
	api.MountLimits(mux, reg, 0, api.Limits{DataDir: cfg.outDir})
	var h http.Handler = mux
	body := &sumCounter{}
	if rec != nil {
		h = &tracedApply{reg: reg, next: mux, rec: rec, limit: api.Limits{}.WithDefaults().JSONBody, bodyLen: body}
	}
	srv, err := startServer(h)
	if err != nil {
		reg.Close()
		return nil, 0, err
	}
	env := &serveEnv{reg: reg, srv: srv, hc: newHTTPClient(2), body: body}
	ctx := context.Background()
	t0 := time.Now()
	err = doJSON(ctx, env.hc, http.MethodPost, srv.base+"/matrices",
		api.CreateRequest{Name: serveTenant, Spec: spec}, nil, http.StatusAccepted)
	if err == nil {
		_, err = postApply(ctx, env.hc, env.applyURL(), pool[0], 0, 0)
	}
	ready := time.Since(t0).Seconds()
	if err != nil {
		env.close()
		return nil, 0, fmt.Errorf("create %s: %w", serveTenant, err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := postApply(ctx, env.hc, env.applyURL(), pool[(c+2*i)%len(pool)], 0, 0); err != nil {
					errs[c] = err
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			env.close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	runtime.GC()
	return env, ready, nil
}

// loopStats collects one closed-loop window.
type loopStats struct {
	mu      sync.Mutex
	lat     []float64
	ok      int64
	failed  int64
	errs    []string
	elapsed float64
}

func (l *loopStats) record(d time.Duration, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.failed++
		if len(l.errs) < 5 {
			l.errs = append(l.errs, err.Error())
		}
		return
	}
	l.ok++
	l.lat = append(l.lat, ms(d))
}

// corrupter flips one bit of the first answer it sees when armed, so the
// self-test can prove the bitwise gate fires.
type corrupter struct{ armed atomic.Bool }

func newCorrupter(on bool) *corrupter {
	c := &corrupter{}
	c.armed.Store(on)
	return c
}

func (c *corrupter) maybe(y []float64) []float64 {
	if c.armed.CompareAndSwap(true, false) {
		return flipBit(y)
	}
	return y
}

// closedLoop runs clients closed-loop applies for the given duration: each
// sends pool vector (c + clients·i) mod len(pool), times it from send to
// receive, and checks the answer bit for bit against refs.
func closedLoop(env *serveEnv, clients int, dur time.Duration, pool, refs [][]float64, rec *recorder, cor *corrupter) *loopStats {
	st := &loopStats{}
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				v := (c + clients*i) % len(pool)
				req := rec.newReq()
				sp := rec.begin("client.apply", 0, req)
				t0 := time.Now()
				y, err := postApply(ctx, env.hc, env.applyURL(), pool[v], req, sp.id)
				d := time.Since(t0)
				rec.end(sp)
				if err == nil && !bitsEqual(cor.maybe(y), refs[v]) {
					err = fmt.Errorf("apply answer for vector %d differs from the reference apply", v)
				}
				st.record(d, err)
			}
		}(c)
	}
	wg.Wait()
	st.elapsed = time.Since(start).Seconds()
	return st
}

func runServeNormal(cfg config) (*outcome, error) {
	oc := newOutcome()
	var rec *recorder
	if cfg.trace {
		oc.zeroLayers()
		rec = newRecorder()
		oc.rec = rec
		hostRoofs(oc, cfg.sz.hostBytes)
	}
	n := cfg.sz.serveN
	spec := registry.BuildSpec{
		Kernel: "coulomb", Dist: "cube", N: n, Dim: 3, Tol: buildTol,
		Mem: "normal", Leaf: cfg.sz.leaf, Seed: geometrySeed, Workers: 2,
	}
	pool := make([][]float64, cfg.sz.pool)
	for i := range pool {
		pool[i] = seededVec(n, cfg.seed, int64(i))
	}

	var env *serveEnv
	var setups, readys []float64
	for rep := 0; rep < cfg.sz.setupReps; rep++ {
		if env != nil {
			env.close()
			env = nil
			freeMemory()
		}
		t0 := time.Now()
		e, ready, err := startServe(cfg, spec, pool, rec)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		readys = append(readys, ready)
		env = e
	}
	oc.values["setup_s"] = median(setups)
	oc.values["ready_s"] = median(readys)
	oc.detail["setup_s_each"] = setups
	oc.detail["ready_s_each"] = readys

	m, ok := env.reg.Matrix(serveTenant)
	if !ok {
		env.close()
		return nil, fmt.Errorf("%s not ready after set-up", serveTenant)
	}
	// Reference applies outside the serving path: the same generators,
	// applied directly, with no api, batcher or registry in between.
	refs := make([][]float64, len(pool))
	for i, b := range pool {
		refs[i] = m.Apply(b)
	}
	cor := newCorrupter(cfg.corrupt)
	win := time.Duration(cfg.seconds * float64(time.Second))
	pts, _ := pointset.Named("cube", n, 3, geometrySeed)
	k, _ := kernel.ByName("coulomb")

	var loop *loopStats
	if !cfg.trace {
		loop = closedLoop(env, 2, win, pool, refs, nil, cor)
	} else {
		// Untraced first half, traced second half: the throughput ratio
		// is the tracing overhead; layer numbers come from the traced half.
		plain := closedLoop(env, 2, win/2, pool, refs, nil, cor)
		inf0, _ := env.reg.Get(serveTenant)
		sw0 := m.SweepStats()
		rec.on.Store(true)
		loop = closedLoop(env, 2, win/2, pool, refs, rec, cor)
		rec.on.Store(false)
		inf1, _ := env.reg.Get(serveTenant)
		serveLayers(oc, *inf0.Serve, *inf1.Serve)
		// The registry is fresh from set-up: its counters cover this run.
		registryLayers(oc, registry.Stats{}, env.reg.Stats())
		tile := tileEvalsPerSec(k, pts, 300*time.Millisecond)
		coreLayers(oc, sweepDelta(sw0, m.SweepStats()), storedBytes(m), 0, tile)
		if inf1.Phases != nil {
			buildLayers(oc, float64(inf1.Phases.TotalNS)/1e6, *inf1.Phases)
		}
		if apiLayers(oc, rec, env.body) < 0.9 {
			oc.gate("server-side layer spans cover %.1f%% of handler wall time, below 90%%",
				100*oc.detail["trace_handler_coverage"].(float64))
		}
		oc.values["trace.overhead_ratio"] = (float64(loop.ok) / loop.elapsed) / (float64(plain.ok) / plain.elapsed)
		oc.attempted += plain.ok + plain.failed
		oc.failed += plain.failed
		oc.gateErrs = append(oc.gateErrs, plain.errs...)
	}
	oc.attempted += loop.ok + loop.failed
	oc.failed += loop.failed
	oc.gateErrs = append(oc.gateErrs, loop.errs...)
	oc.latencyMetrics(loop.lat)
	oc.values["throughput_rps"] = float64(loop.ok) / loop.elapsed
	oc.values["matrix_mib"] = mib(m.Memory().Total())

	// One client-side GMRES solve of (K + σI)x = b whose every product is an
	// HTTP apply, each answer checked against a direct apply (that check
	// is excluded from solve_s).
	if cfg.trace {
		rec.on.Store(true)
	}
	httpSolve{hc: env.hc, url: env.applyURL(), ref: m.Apply, n: m.N, sigma: serveSigma, gmres: true, solves: 1}.run(oc, cfg, rec, cor)
	if cfg.trace {
		rec.on.Store(false)
	}

	probes := accuracyProbes(n, cfg.sz.pool)
	ys := make([][]float64, len(probes))
	for i, b := range probes {
		ys[i] = m.Apply(b)
	}
	lo, mean, hi := relErrStats(pts, k, probes, ys, cfg.sz.errRows, geometrySeed)
	relerrGateCheck(oc, lo, mean, hi)

	env.close()
	env = nil
	freeMemory()
	if cfg.trace {
		oc.values["par.apply_speedup_w2"] = applySpeedup(pts, k, core.Config{
			Mode: core.Normal, Tol: buildTol, LeafSize: cfg.sz.leaf,
		}, pool[0])
	}
	rss, err := rssPeakMiB()
	if err != nil {
		return nil, err
	}
	oc.values["rss_peak_mib"] = rss
	return oc, nil
}

// relerrGateCheck records relerr (the max over the probe vectors) and gates
// it against the build tolerance.
func relerrGateCheck(oc *outcome, lo, mean, hi float64) {
	oc.values["relerr"] = hi
	oc.detail["relerr_min"], oc.detail["relerr_mean"], oc.detail["relerr_max"] = lo, mean, hi
	if !(hi <= relerrGate) {
		oc.gate("relerr %.3g exceeds the gate %.3g (10 × build tolerance)", hi, relerrGate)
	}
}

// httpSolve is a client-side solve of (K + σI)x = b whose every product
// is one HTTP apply to url, each answer checked bit for bit against ref
// (a direct apply outside the serving path; the check is excluded from
// solve_s). CG needs K + σI positive definite; gmres selects GMRES for
// systems that are not.
type httpSolve struct {
	hc     *http.Client
	url    string
	ref    func(b []float64) []float64
	n      int
	sigma  float64
	gmres  bool
	solves int // solve_s is the median over this many right-hand sides
}

// run fills solve_s and the solver layer metrics, and gates convergence,
// every answer and each re-checked residual.
func (s httpSolve) run(oc *outcome, cfg config, rec *recorder, cor *corrupter) {
	ctx := context.Background()
	var walls []float64
	for j := 0; j < s.solves; j++ {
		var verify time.Duration
		var applies, bad int
		root := rec.begin("solver.solve", 0, rec.newReq())
		op := solver.Func(func(y, b []float64) {
			applies++
			sp := rec.begin("solver.apply", root.id, root.req)
			got, err := postApply(ctx, s.hc, s.url, b, root.req, sp.id)
			rec.end(sp)
			tv := time.Now()
			if err == nil && !bitsEqual(cor.maybe(got), s.ref(b)) {
				err = fmt.Errorf("solve apply %d differs from the reference apply", applies)
			}
			if err != nil {
				bad++
				if bad == 1 {
					oc.gateErrs = append(oc.gateErrs, err.Error())
				}
				got = nanVec(len(b))
			}
			copy(y, got)
			verify += time.Since(tv)
		})
		a := solver.Shifted{Op: op, Sigma: s.sigma}
		b := seededVec(s.n, cfg.seed, int64(1000+j))
		t0 := time.Now()
		var res solver.Result
		if s.gmres {
			res = solver.GMRES(a, b, gmresRestart, solveTol, maxSolveIter)
		} else {
			res = solver.CG(a, b, solveTol, maxSolveIter)
		}
		wall := time.Since(t0) - verify
		rec.end(root)
		walls = append(walls, wall.Seconds())
		oc.attempted += int64(applies)
		oc.failed += int64(bad)
		oc.values["solver.iterations"] = float64(res.Iterations)
		checkSolve(oc, res, b, func(x []float64) []float64 {
			y := s.ref(x)
			for i := range y {
				y[i] += s.sigma * x[i]
			}
			return y
		})
	}
	oc.values["solve_s"] = median(walls)
	oc.detail["solve_s_each"] = walls
	oc.detail["solve_sigma"] = s.sigma
	if rec != nil {
		oc.values["solver.apply_share"] = rec.summary()["solver.apply"].SumMS / 1e3 / sumOf(walls)
	}
}

// nanVec stands in for a failed product so the solve cannot converge on it.
func nanVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.NaN()
	}
	return v
}

// checkSolve gates a solve: converged, and the residual re-computed with a
// fresh operator apply within residualGate.
func checkSolve(oc *outcome, res solver.Result, rhs []float64, apply func([]float64) []float64) {
	oc.attempted++
	if !res.Converged {
		oc.gate("solve did not converge: %d iterations, residual %.3g", res.Iterations, res.Residual)
		return
	}
	ax := apply(res.X)
	var num, den float64
	for i := range rhs {
		d := rhs[i] - ax[i]
		num += d * d
		den += rhs[i] * rhs[i]
	}
	r := math.Sqrt(num / den)
	oc.detail["solve_true_residual"] = r
	if !(r <= residualGate) {
		oc.gate("re-checked solve residual %.3g exceeds %.3g", r, residualGate)
	}
}

// sweepDelta subtracts two SweepStats snapshots.
func sweepDelta(a, b core.SweepStats) core.SweepStats {
	return core.SweepStats{
		Applies: b.Applies - a.Applies, UpNS: b.UpNS - a.UpNS,
		CouplingNS: b.CouplingNS - a.CouplingNS, DownNS: b.DownNS - a.DownNS,
		LeafNS: b.LeafNS - a.LeafNS, OtfAssemblyNS: b.OtfAssemblyNS - a.OtfAssemblyNS,
		HybridHits: b.HybridHits - a.HybridHits, HybridMisses: b.HybridMisses - a.HybridMisses,
	}
}

// applySpeedup builds twin matrices at one and two workers and returns the
// ratio of their median apply times (three applies each, after one
// warm-up).
func applySpeedup(pts *pointset.Points, k kernel.Pairwise, c core.Config, b []float64) float64 {
	timeAt := func(w int) float64 {
		c.Workers = w
		m, err := core.Build(pts, k, c)
		if err != nil {
			return math.NaN()
		}
		y := make([]float64, m.N)
		m.ApplyTo(y, b)
		var ts []float64
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			m.ApplyTo(y, b)
			ts = append(ts, time.Since(t0).Seconds())
		}
		m = nil
		freeMemory()
		return median(ts)
	}
	return timeAt(1) / timeAt(2)
}
