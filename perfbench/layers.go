package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"h2ds/internal/api"
	"h2ds/internal/core"
	"h2ds/internal/registry"
	"h2ds/internal/serve"
)

// fullEvals counts the kernel evaluations one apply makes when no block is
// stored: every directed interaction-list pair (rank × rank) plus every
// directed nearfield pair (leaf size × leaf size). Computed from the tree
// and the ranks, not measured.
func fullEvals(m *core.Matrix) float64 {
	ranks := m.NodeRanks()
	var e float64
	for i := range m.Tree.Nodes {
		nd := &m.Tree.Nodes[i]
		for _, j := range nd.Interaction {
			e += float64(ranks[i]) * float64(ranks[j])
		}
		for _, j := range nd.Near {
			e += float64(nd.Size()) * float64(m.Tree.Nodes[j].Size())
		}
	}
	return e
}

// storedBytes is the coupling+nearfield block store an apply streams.
func storedBytes(m *core.Matrix) float64 {
	mem := m.Memory()
	return float64(mem.Coupling + mem.Nearfield)
}

// coreLayers fills the core and kernel apply metrics from a SweepStats
// delta. bytes is the computed stored bytes one sweep streams, evals the
// computed kernel evaluations one fully on-the-fly sweep makes (scaled
// below by the hybrid miss share), tile the measured OTF roof. Stage times
// are summed across workers, as SweepStats records them.
func coreLayers(oc *outcome, d core.SweepStats, bytes, evals, tile float64) {
	if d.Applies == 0 {
		return
	}
	per := func(ns int64) float64 { return float64(ns) / float64(d.Applies) / 1e6 }
	oc.values["core.up_ms"] = per(d.UpNS)
	oc.values["core.coupling_ms"] = per(d.CouplingNS)
	oc.values["core.down_ms"] = per(d.DownNS)
	oc.values["core.leaf_ms"] = per(d.LeafNS)
	oc.values["core.apply_ms"] = per(d.UpNS + d.CouplingNS + d.DownNS + d.LeafNS)
	oc.values["core.otf_assembly_ms"] = per(d.OtfAssemblyNS)
	blocks := d.HybridHits + d.HybridMisses
	missShare := 1.0
	if blocks > 0 {
		oc.values["core.hybrid_hit_ratio"] = float64(d.HybridHits) / float64(blocks)
		missShare = float64(d.HybridMisses) / float64(blocks)
	}
	// Streaming time is the coupling and leaf stages minus the on-the-fly
	// evaluation inside them.
	if streamMS := per(d.CouplingNS + d.LeafNS - d.OtfAssemblyNS); bytes > 0 && streamMS > 0 {
		gbps := bytes / (streamMS * 1e6) // bytes per ns = GB/s
		oc.values["core.stream_gbps"] = gbps
		if roof := oc.values["host.read_gbps_w2"]; roof > 0 {
			oc.values["core.stream_roof_frac"] = gbps / roof
		}
	}
	oc.values["kernel.tile_evals_per_s"] = tile
	if otf := per(d.OtfAssemblyNS); otf > 0 && tile > 0 {
		evalsPerSec := evals * missShare / (otf / 1e3)
		oc.values["kernel.otf_roof_frac"] = evalsPerSec / tile
	}
	oc.detail["core_sweeps"] = d.Applies
	oc.detail["core_stored_bytes_per_sweep_computed"] = bytes
	oc.detail["kernel_otf_evals_per_sweep_computed"] = evals * missShare
}

// buildLayers fills the construction metrics from one build's phase
// breakdown and the wall time of the call that ran it.
func buildLayers(oc *outcome, wallMS float64, p core.BuildPhases) {
	oc.values["core.build_ms"] = wallMS
	oc.values["tree.build_ms"] = float64(p.TreeNS) / 1e6
	oc.values["sample.build_ms"] = float64(p.SampleNS) / 1e6
	oc.values["kernel.assembly_ms"] = float64(p.AssemblyNS) / 1e6
	oc.values["mat.id_ms"] = float64(p.IDNS) / 1e6
	oc.values["core.transfer_ms"] = float64(p.TransferNS) / 1e6
	oc.values["core.coupling_build_ms"] = float64(p.CouplingNS) / 1e6
}

// serveLayers fills the batcher metrics from a serve.Stats delta.
func serveLayers(oc *outcome, a, b serve.Stats) {
	meanDelta := func(x, y serve.HistSnapshot) float64 {
		dc := y.Count - x.Count
		if dc <= 0 {
			return 0
		}
		return (y.Mean*float64(y.Count) - x.Mean*float64(x.Count)) / float64(dc)
	}
	oc.values["serve.occupancy_mean"] = meanDelta(a.BatchOccupancy, b.BatchOccupancy)
	oc.values["serve.queue_wait_us_mean"] = meanDelta(a.QueueWaitUS, b.QueueWaitUS)
	oc.values["serve.flush_ms_mean"] = meanDelta(a.FlushUS, b.FlushUS) / 1e3
}

// registryLayers fills the registry counters from a Stats delta.
func registryLayers(oc *outcome, a, b registry.Stats) {
	hits := b.BuildCacheHits - a.BuildCacheHits
	lookups := hits + b.BuildCacheMisses - a.BuildCacheMisses
	if lookups > 0 {
		oc.values["registry.cache_hit_ratio"] = float64(hits) / float64(lookups)
	}
	oc.values["registry.downgrades"] = float64(b.Downgrades - a.Downgrades)
	oc.values["registry.evictions"] = float64(b.Evictions - a.Evictions)
	oc.values["registry.rehydrations"] = float64(b.Rehydrations - a.Rehydrations)
	oc.values["registry.swap_drains"] = float64(b.SwapDrains - a.SwapDrains)
}

// addRegStats sums registry counters across nodes.
func addRegStats(a, b registry.Stats) registry.Stats {
	a.BuildCacheHits += b.BuildCacheHits
	a.BuildCacheMisses += b.BuildCacheMisses
	a.Downgrades += b.Downgrades
	a.Evictions += b.Evictions
	a.Rehydrations += b.Rehydrations
	a.SwapDrains += b.SwapDrains
	return a
}

// server is one loopback HTTP listener serving a handler.
type server struct {
	srv  *http.Server
	base string
	done chan struct{}
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// stop shuts the listener down and waits for its serve loop to exit.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.done
}

// newHTTPClient returns a keep-alive client limited to conns connections
// per host.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// Trace headers carry the client's request and span ids to the traced
// server handler.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

// httpStatusError is a non-2xx answer.
type httpStatusError struct {
	code int
	body string
}

func (e *httpStatusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// postApply sends one apply request and decodes the answer. req and
// parent, when non-zero, ride along as trace headers.
func postApply(ctx context.Context, hc *http.Client, url string, b []float64, req, parent int64) ([]float64, error) {
	body, err := json.Marshal(api.ApplyRequest{B: b})
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if req != 0 {
		hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		hr.Header.Set(hdrSpan, strconv.FormatInt(parent, 10))
	}
	resp, err := hc.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &httpStatusError{resp.StatusCode, string(bytes.TrimSpace(raw))}
	}
	var out api.ApplyResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("decode apply answer: %w", err)
	}
	return out.Y, nil
}

// doJSON sends a request with an optional JSON body and decodes a JSON
// answer into out (when non-nil). want is the expected status.
func doJSON(ctx context.Context, hc *http.Client, method, url string, in, out any, want int) error {
	var rd io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	hr, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return &httpStatusError{resp.StatusCode, string(bytes.TrimSpace(raw))}
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

// countingBody counts the bytes a handler reads from a request body.
type countingBody struct {
	io.ReadCloser
	n int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n += int64(n)
	return n, err
}

// tracedApply serves POST /matrices/{name}/apply exactly as api.ApplyTo
// does — api.DecodeJSON, then Registry.Apply, then api.WriteJSON (or
// api.Error) — with a span around each call and one around the whole
// handler. Every other request, and every apply while recording is off,
// goes to next, the real api surface.
type tracedApply struct {
	reg     *registry.Registry
	next    http.Handler
	rec     *recorder
	limit   int64
	bodyLen *sumCounter
}

// sumCounter accumulates request body sizes.
type sumCounter struct {
	mu       sync.Mutex
	n, bytes int64
}

func (c *sumCounter) add(b int64) {
	c.mu.Lock()
	c.n++
	c.bytes += b
	c.mu.Unlock()
}

func (c *sumCounter) mean() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == 0 {
		return 0
	}
	return float64(c.bytes) / float64(c.n)
}

func (t *tracedApply) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name, ok := applyTarget(r)
	if !ok || !t.rec.on.Load() {
		t.next.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	h := t.rec.begin("api.handler", parent, req)
	defer t.rec.end(h)

	cb := &countingBody{ReadCloser: r.Body}
	r.Body = cb
	var in api.ApplyRequest
	sp := t.rec.begin("api.decode", h.id, req)
	ok = api.DecodeJSON(w, r, t.limit, &in)
	t.rec.end(sp)
	t.bodyLen.add(cb.n)
	if !ok {
		return
	}
	sp = t.rec.begin("registry.apply", h.id, req)
	y, err := t.reg.Apply(r.Context(), name, in.B)
	t.rec.end(sp)
	if err != nil {
		api.Error(w, err)
		return
	}
	sp = t.rec.begin("api.encode", h.id, req)
	api.WriteJSON(w, http.StatusOK, api.ApplyResponse{Y: y})
	t.rec.end(sp)
}

// applyTarget returns the instance name of a POST /matrices/{name}/apply.
func applyTarget(r *http.Request) (string, bool) {
	rest, ok := strings.CutPrefix(r.URL.Path, "/matrices/")
	if !ok || r.Method != http.MethodPost {
		return "", false
	}
	name, ok := strings.CutSuffix(rest, "/apply")
	if !ok || name == "" || strings.Contains(name, "/") {
		return "", false
	}
	return name, true
}

// apiLayers fills the api and registry span metrics and the handler
// accounting from the recorder's summary.
func apiLayers(oc *outcome, rec *recorder, body *sumCounter) (coverage float64) {
	sum := rec.summary()
	oc.values["api.decode_ms"] = sum["api.decode"].MeanMS
	oc.values["api.encode_ms"] = sum["api.encode"].MeanMS
	oc.values["api.body_bytes"] = body.mean()
	oc.values["registry.apply_ms"] = sum["registry.apply"].MeanMS
	h := sum["api.handler"]
	oc.values["trace.unaccounted_ms"] = h.SelfMS
	oc.detail["trace_handler_spans"] = h.Count
	oc.detail["trace_client_apply_ms"] = sum["client.apply"].MeanMS
	oc.detail["trace_handler_ms"] = h.MeanMS
	if h.MeanMS > 0 {
		coverage = 1 - h.SelfMS/h.MeanMS
	}
	oc.detail["trace_handler_coverage"] = coverage
	return coverage
}
