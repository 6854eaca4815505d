package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"h2ds/internal/api"
	"h2ds/internal/cluster"
	"h2ds/internal/core"
	"h2ds/internal/kernel"
	"h2ds/internal/pointset"
	"h2ds/internal/registry"
	"h2ds/internal/serve"
)

// Tenant kernels. Every tenant shares one geometry, so builds after the
// first reuse the construction cache. Every tenant is on-the-fly; stable
// tenants alternate between two kernels on each hot swap. Budget pressure
// therefore resolves by eviction with spill and rehydration, not by
// downgrade: a hybrid victim already at zero stored blocks still reports
// the bytes of its empty frozen block index, so Registry.enforceBudget
// re-downgrades it forever (README.md records the defect).
var (
	stableKernels = [][2]string{{"imq", "matern32"}, {"coulomb", "coulomb3"}}
	churnKernels  = []string{"exp", "gaussian", "matern52", "coulomb3"}
)

// churnSigma regularizes the solve on stable tenant 0 (both of its kernels
// are positive definite).
const churnSigma = 100

// churnPool is the number of seeded vectors the reader cycles through.
const churnPool = 4

// specRef is the independent reference of one tenant spec: a build made
// outside the service and its answers to the seeded vectors.
type specRef struct {
	spec registry.BuildSpec
	m    *core.Matrix
	ys   [][]float64 // answers to the pool vectors
}

// tenant is one instance the workload created.
type tenant struct {
	name   string
	stable int // stable-tenant index, -1 for churn tenants

	mu      sync.Mutex
	sets    [][]*specRef // every accepted set in order; the last is current
	variant int
}

// epoch is the index of the current accepted set.
func (t *tenant) epoch() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sets) - 1
}

// refsSince is every version accepted at some point from epoch e on: an
// answer to a request sent at epoch e may come from any of them, because
// a hot swap that starts while the request is in flight (for instance
// still waiting for one of the client's two connections) may serve it
// from the new version.
func (t *tenant) refsSince(e int) []*specRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*specRef
	for _, set := range t.sets[e:] {
		out = append(out, set...)
	}
	return out
}

// refsAt is the set accepted at epoch e.
func (t *tenant) refsAt(e int) []*specRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sets[e]
}

func (t *tenant) setRefs(r ...*specRef) {
	t.mu.Lock()
	t.sets = append(t.sets, r)
	t.mu.Unlock()
}

// churnNode is one in-process cluster member.
type churnNode struct {
	reg   *registry.Registry
	srv   *server
	spill string
}

// churnEnv is one set-up of tenant-churn: two nodes behind a router.
type churnEnv struct {
	nodes  []*churnNode
	router *server
	hc     *http.Client
	body   *sumCounter

	// laterVersion counts answers that came from a version accepted only
	// after their request was sent (a hot swap overtaking the request).
	laterVersion atomic.Int64
}

func (e *churnEnv) close() {
	e.hc.CloseIdleConnections()
	e.router.stop()
	for _, n := range e.nodes {
		n.srv.stop()
		n.reg.Close()
		os.RemoveAll(n.spill)
	}
}

func (e *churnEnv) nodeByBase(base string) *churnNode {
	for _, n := range e.nodes {
		if n.srv.base == base {
			return n
		}
	}
	return nil
}

// regStats sums the registry counters of both nodes.
func (e *churnEnv) regStats() registry.Stats {
	var s registry.Stats
	for _, n := range e.nodes {
		s = addRegStats(s, n.reg.Stats())
	}
	return s
}

// churnSpec is the shared-geometry spec of one tenant.
func churnSpec(cfg config, kern string) registry.BuildSpec {
	return registry.BuildSpec{
		Kernel: kern, Dist: "cube", N: cfg.sz.churnN, Dim: 3, Tol: buildTol,
		Basis: "dd", Mem: "otf", Leaf: cfg.sz.churnLeaf, Sampler: "anchornet",
		Seed: geometrySeed, Workers: 2,
	}
}

// buildRef builds a spec outside the service and answers the pool.
func buildRef(sp registry.BuildSpec, pool [][]float64) (*specRef, error) {
	m, err := registry.DefaultBuild(context.Background(), sp, func(string) {})
	if err != nil {
		return nil, fmt.Errorf("reference build %s: %w", sp.Kernel, err)
	}
	ys := make([][]float64, len(pool))
	for i, b := range pool {
		ys[i] = m.Apply(b)
	}
	return &specRef{spec: sp, m: m, ys: ys}, nil
}

// waitReplicated polls the router until every replica of name is
// installed.
func waitReplicated(ctx context.Context, env *churnEnv, name string) (cluster.RouteInfo, error) {
	for {
		var ri cluster.RouteInfo
		if err := doJSON(ctx, env.hc, http.MethodGet, env.router.base+"/cluster/route/"+name, nil, &ri, http.StatusOK); err != nil {
			return ri, err
		}
		if len(ri.Replicated) >= len(ri.Replicas) {
			return ri, nil
		}
		select {
		case <-ctx.Done():
			return ri, fmt.Errorf("%s not replicated: %w", name, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// createTenant sends a create (or a hot swap, for an existing name) to the
// router, waits until the replicas hold it, and returns the route.
func createTenant(ctx context.Context, env *churnEnv, name string, sp registry.BuildSpec) (cluster.RouteInfo, error) {
	if err := doJSON(ctx, env.hc, http.MethodPost, env.router.base+"/matrices",
		api.CreateRequest{Name: name, Spec: sp}, nil, http.StatusAccepted); err != nil {
		return cluster.RouteInfo{}, fmt.Errorf("create %s: %w", name, err)
	}
	return waitReplicated(ctx, env, name)
}

// checkAnswer reports whether y matches the pool answer of vector v under
// any accepted version.
func checkAnswer(y []float64, refs []*specRef, v int) bool {
	for _, r := range refs {
		if bitsEqual(y, r.ys[v]) {
			return true
		}
	}
	return false
}

// routedApply sends one apply through the router and checks it against
// every version accepted between sending it and receiving the answer.
func routedApply(ctx context.Context, env *churnEnv, t *tenant, v int, pool [][]float64, cor *corrupter) (time.Duration, error) {
	e := t.epoch()
	t0 := time.Now()
	y, err := postApply(ctx, env.hc, env.router.base+"/matrices/"+t.name+"/apply", pool[v], 0, 0)
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("apply %s: %w", t.name, err)
	}
	y = cor.maybe(y)
	if !checkAnswer(y, t.refsSince(e), v) {
		return d, fmt.Errorf("apply %s vector %d differs from every accepted reference", t.name, v)
	}
	if !checkAnswer(y, t.refsAt(e), v) {
		env.laterVersion.Add(1)
	}
	return d, nil
}

// startChurn brings the cluster up and creates the stable tenants.
func startChurn(cfg config, rep int, budget int64, stable []*specRef, pool [][]float64, rec *recorder) (*churnEnv, []*tenant, error) {
	env := &churnEnv{hc: newHTTPClient(2), body: &sumCounter{}}
	var members []string
	for i := 0; i < 2; i++ {
		spill := filepath.Join(cfg.outDir, fmt.Sprintf("spill-%d-%d", rep, i))
		reg := registry.New(registry.Config{MemBudget: budget, SpillDir: spill})
		lim := api.Limits{DataDir: spill}
		h := cluster.NodeHandler(reg, 0, lim)
		if rec != nil {
			h = &tracedApply{reg: reg, next: h, rec: rec, limit: lim.WithDefaults().JSONBody, bodyLen: env.body}
		}
		srv, err := startServer(h)
		if err != nil {
			reg.Close()
			env.close()
			return nil, nil, err
		}
		env.nodes = append(env.nodes, &churnNode{reg: reg, srv: srv, spill: spill})
		members = append(members, srv.base)
	}
	rt := cluster.NewRouter(cluster.RouterConfig{Members: members, Replicas: 2, Workers: 2})
	rsrv, err := startServer(rt.Handler())
	if err != nil {
		env.close()
		return nil, nil, err
	}
	env.router = rsrv
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var ts []*tenant
	for i, r := range stable {
		t := &tenant{name: fmt.Sprintf("stable%d", i), stable: i}
		t.setRefs(r)
		if _, err := createTenant(ctx, env, t.name, r.spec); err != nil {
			env.close()
			return nil, nil, err
		}
		ts = append(ts, t)
	}
	// Warm-up: every tenant answers every pool vector once (both holders).
	for _, t := range ts {
		for v := range pool {
			if _, err := routedApply(ctx, env, t, v, pool, newCorrupter(false)); err != nil {
				env.close()
				return nil, nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	freeMemory()
	return env, ts, nil
}

// writer is the open-loop writer's state, carried across the halves of a
// traced run.
type writer struct {
	ready    []float64 // create due → first routed apply answered, s
	lateness []float64 // start − due, ms
	ops      int64
	fails    []string
	nextID   int
	churned  []*tenant // live churn tenants, oldest first
}

// churnWindow is what one measured window produced.
type churnWindow struct {
	reader    *loopStats
	replicate []float64          // owner ready → replica ready, ms
	phases    []core.BuildPhases // owner builds of the churn tenants created
}

func runTenantChurn(cfg config) (*outcome, error) {
	oc := newOutcome()
	var rec *recorder
	if cfg.trace {
		oc.zeroLayers()
		rec = newRecorder()
		oc.rec = rec
		hostRoofs(oc, cfg.sz.hostBytes)
	}
	n := cfg.sz.churnN
	pool := make([][]float64, churnPool)
	for i := range pool {
		pool[i] = seededVec(n, cfg.seed, int64(i))
	}

	// Independent references for every kernel the workload will serve,
	// built before set-up and not counted in it.
	refOf := map[string]*specRef{}
	var order []string
	var kernels []string
	for _, ks := range stableKernels {
		kernels = append(kernels, ks[:]...)
	}
	for _, k := range append(kernels, churnKernels...) {
		if refOf[k] != nil {
			continue
		}
		r, err := buildRef(churnSpec(cfg, k), pool)
		if err != nil {
			return nil, err
		}
		refOf[k] = r
		order = append(order, k)
	}
	var stable []*specRef
	for _, ks := range stableKernels {
		stable = append(stable, refOf[ks[0]])
	}
	// The node budget holds every stable tenant (at its larger kernel) and
	// the largest churn tenant; the working set holds a second live churn
	// tenant too, so a node over budget evicts, with spill, its least
	// recently used churn tenant. The stable tenants plus the newest churn
	// tenant must always fit: cluster.Router replicates only an instance its
	// owner reports ready, so a new tenant evicted on the owner before the
	// router's export would never replicate (README.md records the defect).
	var stableMax, churnMax, totalMem int64
	for _, ks := range stableKernels {
		stableMax += max(refOf[ks[0]].m.Memory().Total(), refOf[ks[1]].m.Memory().Total())
	}
	for _, k := range churnKernels {
		churnMax = max(churnMax, refOf[k].m.Memory().Total())
	}
	working := stableMax + 2*churnMax
	budget := stableMax + churnMax
	for _, key := range order {
		totalMem += refOf[key].m.Memory().Total()
	}
	oc.values["matrix_mib"] = mib(totalMem)
	oc.detail["node_budget_mib"] = mib(budget)
	oc.detail["working_set_mib"] = mib(working)

	var env *churnEnv
	var stableTs []*tenant
	var setups []float64
	for rep := 0; rep < cfg.sz.setupReps; rep++ {
		if env != nil {
			env.close()
			env = nil
			freeMemory()
		}
		t0 := time.Now()
		e, ts, err := startChurn(cfg, rep, budget, stable, pool, rec)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		env, stableTs = e, ts
	}
	defer func() {
		if env != nil {
			env.close()
		}
	}()
	oc.values["setup_s"] = median(setups)
	oc.detail["setup_s_each"] = setups

	cor := newCorrupter(cfg.corrupt)
	win := time.Duration(cfg.seconds * float64(time.Second))
	w := &writer{}
	var cw *churnWindow
	if !cfg.trace {
		cw = churnRun(cfg, env, stableTs, refOf, pool, win, 0, w, cor)
	} else {
		plain := churnRun(cfg, env, stableTs, refOf, pool, win/2, 0, w, cor)
		rs0 := env.regStats()
		vt := startTracker(env)
		rec.on.Store(true)
		cw = churnRun(cfg, env, stableTs, refOf, pool, win/2, win/2, w, cor)
		rec.on.Store(false)
		vt.finish()
		churnLayers(oc, cfg, env, rec, vt, rs0, cw)
		oc.values["trace.overhead_ratio"] = (float64(cw.reader.ok) / cw.reader.elapsed) /
			(float64(plain.reader.ok) / plain.reader.elapsed)
		rec.on.Store(true)
		oc.values["cluster.route_ms"] = routeCost(env, stableTs[1], pool, rec)
		rec.on.Store(false)
		oc.attempted += plain.reader.ok + plain.reader.failed
		oc.failed += plain.reader.failed
		oc.gateErrs = append(oc.gateErrs, plain.reader.errs...)
	}
	oc.attempted += cw.reader.ok + cw.reader.failed + w.ops
	oc.failed += cw.reader.failed + int64(len(w.fails))
	oc.gateErrs = append(oc.gateErrs, cw.reader.errs...)
	oc.gateErrs = append(oc.gateErrs, w.fails...)
	oc.latencyMetrics(cw.reader.lat)
	oc.values["throughput_rps"] = float64(cw.reader.ok) / cw.reader.elapsed
	if len(w.ready) > 0 {
		oc.values["ready_s"] = median(w.ready)
	}
	oc.detail["ready_s_each"] = w.ready
	oc.detail["writer_ops"] = w.ops
	oc.detail["answers_from_later_version"] = env.laterVersion.Load()
	oc.detail["writer_lateness_ms_max"] = quantile(w.lateness, 1)
	rs := env.regStats()
	oc.detail["registry_totals"] = map[string]int64{
		"downgrades": rs.Downgrades, "evictions": rs.Evictions,
		"rehydrations": rs.Rehydrations, "swap_drains": rs.SwapDrains,
		"cache_hits": rs.BuildCacheHits, "cache_misses": rs.BuildCacheMisses,
	}

	// Three client-side CG solves through the router on stable tenant 0.
	if cfg.trace {
		rec.on.Store(true)
	}
	t0 := stableTs[0]
	ref := t0.refsAt(t0.epoch())[0]
	url := env.router.base + "/matrices/" + t0.name + "/apply"
	for range env.nodes { // warm both holders: rehydrate before timing
		if _, err := routedApply(context.Background(), env, t0, 0, pool, newCorrupter(false)); err != nil {
			oc.gate("solve warm-up: %v", err)
		}
	}
	httpSolve{hc: env.hc, url: url, ref: ref.m.Apply, n: ref.m.N, sigma: churnSigma, solves: 3}.run(oc, cfg, rec, cor)
	if cfg.trace {
		rec.on.Store(false)
	}

	// relerr of every spec the workload served, over the probe vectors.
	pts, _ := pointset.Named("cube", n, 3, geometrySeed)
	bs := accuracyProbes(n, cfg.sz.pool)
	hi, lo, mean := 0.0, math.Inf(1), 0.0
	for _, key := range order {
		r := refOf[key]
		k, _ := kernel.ByName(r.spec.Kernel)
		l, m, h := relErrStats(pts, k, bs, applyColumns(r.m, bs), cfg.sz.errRows, geometrySeed)
		lo, hi = math.Min(lo, l), math.Max(hi, h)
		mean += m / float64(len(order))
	}
	relerrGateCheck(oc, lo, mean, hi)

	if cfg.trace {
		r := refOf[churnKernels[0]]
		oc.values["core.serialize_mib_per_s"] = serializeRate(r.m)
		k, _ := kernel.ByName(stable[0].spec.Kernel)
		oc.values["par.apply_speedup_w2"] = applySpeedup(pts, k, core.Config{
			Mode: core.OnTheFly, Tol: buildTol, LeafSize: cfg.sz.churnLeaf,
		}, pool[0])
	}
	env.close()
	env = nil
	rss, err := rssPeakMiB()
	if err != nil {
		return nil, err
	}
	oc.values["rss_peak_mib"] = rss
	return oc, nil
}

// churnRun runs one window: a closed-loop reader over the stable tenants
// and the open-loop writer. offset shifts the writer's schedule so a
// traced second half continues the first half's sequence.
func churnRun(cfg config, env *churnEnv, stable []*tenant, refOf map[string]*specRef,
	pool [][]float64, dur, offset time.Duration, w *writer, cor *corrupter) *churnWindow {
	out := &churnWindow{reader: &loopStats{}}
	ctx, cancel := context.WithTimeout(context.Background(), dur+60*time.Second)
	defer cancel()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			t := stable[i%len(stable)]
			d, err := routedApply(ctx, env, t, (i/len(stable))%len(pool), pool, cor)
			out.reader.record(d, err)
		}
		out.reader.elapsed = time.Since(start).Seconds()
	}()

	period := time.Duration(cfg.sz.writerPeriod * float64(time.Second))
	for i := int((offset + period - 1) / period); ; i++ {
		due := start.Add(time.Duration(i+1)*period - offset)
		if !due.Before(deadline) {
			break
		}
		time.Sleep(time.Until(due))
		w.lateness = append(w.lateness, ms(time.Since(due)))
		w.ops++
		kind := i % 3
		if kind == 2 && len(w.churned) < 2 {
			kind = 0
		}
		var err error
		switch kind {
		case 0: // create a churn tenant and time it until it answers
			k := churnKernels[w.nextID%len(churnKernels)]
			t := &tenant{name: fmt.Sprintf("churn%d", w.nextID), stable: -1}
			w.nextID++
			r := refOf[k]
			t.setRefs(r)
			var ri cluster.RouteInfo
			ri, err = createTenant(ctx, env, t.name, r.spec)
			if err == nil {
				_, err = routedApply(ctx, env, t, 0, pool, newCorrupter(false))
			}
			if err == nil {
				w.ready = append(w.ready, time.Since(due).Seconds())
				if owner := env.nodeByBase(ri.Owner); owner != nil {
					if inf, ok := owner.reg.Get(t.name); ok && inf.Phases != nil {
						out.phases = append(out.phases, *inf.Phases)
					}
				}
				if rm := replicateMS(env, ri, t.name); rm >= 0 {
					out.replicate = append(out.replicate, rm)
				}
				w.churned = append(w.churned, t)
			}
		case 1: // hot-swap a stable tenant to its other kernel on both holders
			t := stable[(i/3)%len(stable)]
			cur := t.refsAt(t.epoch())
			old := cur[len(cur)-1]
			t.variant ^= 1
			next := refOf[stableKernels[t.stable][t.variant]]
			t.setRefs(old, next)
			err = hotSwap(ctx, env, t.name, next.spec)
			t.setRefs(next)
		case 2: // read the oldest churn tenant (rehydrating it where it was evicted), then delete it
			t := w.churned[0]
			w.churned = w.churned[1:]
			_, err = routedApply(ctx, env, t, 1, pool, newCorrupter(false))
			if err == nil {
				err = doJSON(ctx, env.hc, http.MethodDelete, env.router.base+"/matrices/"+t.name, nil, nil, http.StatusNoContent)
			}
		}
		if err != nil {
			w.fails = append(w.fails, fmt.Sprintf("writer op %d: %v", i, err))
		}
	}
	wg.Wait()
	return out
}

// hotSwap redeclares name on every node, each swapping in its own rebuild,
// and waits until no holder is still rebuilding. It does not go through the
// router: a hot swap sent to cluster.Router leaves the replica on the old
// version, because replication waits only for the owner's Ready state,
// which a hot-swapping instance already has, and so exports the pre-swap
// matrix (README.md records the defect).
//
// A node answers 409 while a build for the name is already running, which
// is how a rehydration of an evicted instance shows; the swap is retried
// until that build settles, as any client of the registry must.
func hotSwap(ctx context.Context, env *churnEnv, name string, sp registry.BuildSpec) error {
	for _, n := range env.nodes {
		for {
			err := doJSON(ctx, env.hc, http.MethodPost, n.srv.base+"/matrices",
				api.CreateRequest{Name: name, Spec: sp}, nil, http.StatusAccepted)
			var se *httpStatusError
			if !errors.As(err, &se) || se.code != http.StatusConflict {
				if err != nil {
					return fmt.Errorf("hot-swap %s on %s: %w", name, n.srv.base, err)
				}
				break
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("hot-swap %s on %s: %w", name, n.srv.base, err)
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	return waitSwapped(ctx, env, name)
}

// waitSwapped waits until no holder of name is still rebuilding, so the
// swapped-in version is the one every holder serves.
func waitSwapped(ctx context.Context, env *churnEnv, name string) error {
	for {
		busy := false
		for _, n := range env.nodes {
			if inf, ok := n.reg.Get(name); ok && (inf.Rebuilding || inf.State != registry.StateReady) {
				busy = true
			}
		}
		if !busy {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s still rebuilding: %w", name, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// replicateMS is the time from the owner's instance turning ready to the
// replica's, read from the registries' instance info; -1 when unknown.
func replicateMS(env *churnEnv, ri cluster.RouteInfo, name string) float64 {
	owner := env.nodeByBase(ri.Owner)
	if owner == nil || len(ri.Replicas) == 0 {
		return -1
	}
	replica := env.nodeByBase(ri.Replicas[0])
	if replica == nil {
		return -1
	}
	oi, ok1 := owner.reg.Get(name)
	pi, ok2 := replica.reg.Get(name)
	if !ok1 || !ok2 || oi.ReadyAt.IsZero() || pi.ReadyAt.IsZero() {
		return -1
	}
	return ms(pi.ReadyAt.Sub(oi.ReadyAt))
}

// serveReading is the batcher counters of one instance version: (count,
// sum) of the occupancy, queue-wait and flush histograms.
type serveReading struct {
	occ, wait, flush [2]float64
}

func readServe(inf registry.Info) serveReading {
	st := inf.Serve
	cs := func(h serve.HistSnapshot) [2]float64 { return [2]float64{float64(h.Count), h.Mean * float64(h.Count)} }
	return serveReading{occ: cs(st.BatchOccupancy), wait: cs(st.QueueWaitUS), flush: cs(st.FlushUS)}
}

// versionReading is one poll of an instance version's counters.
type versionReading struct {
	sweep core.SweepStats
	serve serveReading
}

// versionTracker follows every instance version on every node through a
// traced half. Evictions, rehydrations and swaps replace versions, each
// with fresh counters, so it polls: the first and last reading of each
// version bound its work in the half (a version dropped between polls
// loses at most one interval of it).
type versionTracker struct {
	env         *churnEnv
	first, last map[*core.Matrix]versionReading
	stop, done  chan struct{}
}

// startTracker takes the baseline reading and polls until stopped.
func startTracker(env *churnEnv) *versionTracker {
	vt := &versionTracker{
		env:   env,
		first: map[*core.Matrix]versionReading{}, last: map[*core.Matrix]versionReading{},
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	vt.poll(true)
	go func() {
		defer close(vt.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-vt.stop:
				vt.poll(false)
				return
			case <-tick.C:
				vt.poll(false)
			}
		}
	}()
	return vt
}

// finish stops polling after one last reading.
func (vt *versionTracker) finish() {
	close(vt.stop)
	<-vt.done
}

func (vt *versionTracker) poll(baseline bool) {
	for _, n := range vt.env.nodes {
		for _, inf := range n.reg.List() {
			m, ok := n.reg.Matrix(inf.Name)
			if !ok || inf.Serve == nil {
				continue
			}
			r := versionReading{m.SweepStats(), readServe(inf)}
			if _, seen := vt.first[m]; !seen {
				if baseline {
					vt.first[m] = r
				} else {
					vt.first[m] = versionReading{} // new version: counters start at zero
				}
			}
			vt.last[m] = r
		}
	}
}

// churnLayers aggregates the per-layer metrics of the traced half over
// every instance version the tracker saw.
func churnLayers(oc *outcome, cfg config, env *churnEnv, rec *recorder, vt *versionTracker,
	rs0 registry.Stats, cw *churnWindow) {
	var d core.SweepStats
	var occ, wait, flush [2]float64
	var bytes, evals float64
	kernels := map[string]bool{}
	for m, l := range vt.last {
		f := vt.first[m]
		dm := sweepDelta(f.sweep, l.sweep)
		if dm.Applies == 0 {
			continue
		}
		kernels[m.Kern.Name()] = true
		d = addSweeps(d, dm)
		bytes += storedBytes(m) * float64(dm.Applies)
		evals += fullEvals(m) * float64(dm.Applies)
		for i := 0; i < 2; i++ {
			occ[i] += l.serve.occ[i] - f.serve.occ[i]
			wait[i] += l.serve.wait[i] - f.serve.wait[i]
			flush[i] += l.serve.flush[i] - f.serve.flush[i]
		}
	}
	ratio := func(x [2]float64) float64 {
		if x[0] <= 0 {
			return 0
		}
		return x[1] / x[0]
	}
	oc.values["serve.occupancy_mean"] = ratio(occ)
	oc.values["serve.queue_wait_us_mean"] = ratio(wait)
	oc.values["serve.flush_ms_mean"] = ratio(flush) / 1e3
	pts, _ := pointset.Named("cube", cfg.sz.churnN, 3, geometrySeed)
	var tiles []float64
	for name := range kernels {
		k, _ := kernel.ByName(name)
		tiles = append(tiles, tileEvalsPerSec(k, pts, 100*time.Millisecond))
	}
	if d.Applies > 0 {
		coreLayers(oc, d, bytes/float64(d.Applies), evals/float64(d.Applies), mean1(tiles))
	}
	registryLayers(oc, rs0, env.regStats())
	apiLayers(oc, rec, env.body)
	if len(cw.replicate) > 0 {
		oc.values["cluster.replicate_ms"] = median(cw.replicate)
	}
	// Construction: the owner builds of the churn tenants created in the
	// traced half (cache hits skip sampling, as they do in service).
	if len(cw.phases) > 0 {
		var p core.BuildPhases
		for _, x := range cw.phases {
			p.TreeNS += x.TreeNS
			p.SampleNS += x.SampleNS
			p.AssemblyNS += x.AssemblyNS
			p.IDNS += x.IDNS
			p.TransferNS += x.TransferNS
			p.CouplingNS += x.CouplingNS
			p.TotalNS += x.TotalNS
		}
		c := int64(len(cw.phases))
		p.TreeNS, p.SampleNS, p.AssemblyNS, p.IDNS = p.TreeNS/c, p.SampleNS/c, p.AssemblyNS/c, p.IDNS/c
		p.TransferNS, p.CouplingNS, p.TotalNS = p.TransferNS/c, p.CouplingNS/c, p.TotalNS/c
		buildLayers(oc, float64(p.TotalNS)/1e6, p)
	}
}

func addSweeps(a, b core.SweepStats) core.SweepStats {
	return core.SweepStats{
		Applies: a.Applies + b.Applies, UpNS: a.UpNS + b.UpNS,
		CouplingNS: a.CouplingNS + b.CouplingNS, DownNS: a.DownNS + b.DownNS,
		LeafNS: a.LeafNS + b.LeafNS, OtfAssemblyNS: a.OtfAssemblyNS + b.OtfAssemblyNS,
		HybridHits: a.HybridHits + b.HybridHits, HybridMisses: a.HybridMisses + b.HybridMisses,
	}
}

// routeCost is the router hop: over alternating pairs of an apply sent
// straight to the owner node and the same apply sent through the router,
// the median client time outside the serving node's handler span, routed
// minus direct. Subtracting the handler span keeps the apply's own noise,
// far larger than the hop, out of the difference. rec must be recording.
func routeCost(env *churnEnv, t *tenant, pool [][]float64, rec *recorder) float64 {
	ctx := context.Background()
	var ri cluster.RouteInfo
	if err := doJSON(ctx, env.hc, http.MethodGet, env.router.base+"/cluster/route/"+t.name, nil, &ri, http.StatusOK); err != nil {
		return 0
	}
	outside := func(base string, v int) (float64, bool) {
		n0 := rec.count()
		t0 := time.Now()
		_, err := postApply(ctx, env.hc, base+"/matrices/"+t.name+"/apply", pool[v], 0, 0)
		total := ms(time.Since(t0))
		for _, s := range rec.since(n0) {
			if s.Name == "api.handler" {
				return total - float64(s.End-s.Start)/1e6, err == nil
			}
		}
		return 0, false
	}
	var direct, routed []float64
	for i := 0; i < 16; i++ {
		v := i % len(pool)
		d, ok1 := outside(ri.Owner, v)
		r, ok2 := outside(env.router.base, v)
		if !ok1 || !ok2 {
			return 0
		}
		direct = append(direct, d)
		routed = append(routed, r)
	}
	return median(routed) - median(direct)
}

// serializeRate is the replication codec's speed: matrix stream bytes over
// the time of one WriteTo plus one ReadAny, in MiB/s.
func serializeRate(m *core.Matrix) float64 {
	var buf bytes.Buffer
	t0 := time.Now()
	if _, err := m.WriteTo(&buf); err != nil {
		return 0
	}
	size := buf.Len()
	if _, err := core.ReadAny(&buf); err != nil {
		return 0
	}
	return mib(int64(size)) / time.Since(t0).Seconds()
}
