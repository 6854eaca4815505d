package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"h2ds/internal/api"
)

// RouterConfig tunes a Router. Members are node base URLs
// ("http://10.0.0.1:8080"); the zero value of everything else is usable.
type RouterConfig struct {
	// Members is the initial node set. Membership can be changed at runtime
	// via POST /cluster/members.
	Members []string

	// Replicas is the number of nodes holding each matrix, owner included
	// (default 2, clamped to the member count). 1 disables replication.
	Replicas int

	// Vnodes is the virtual-node count per member (default DefaultVnodes).
	Vnodes int

	// Timeout bounds each proxied request (default 60s); kept generous
	// because an apply may wait out a build.
	Timeout time.Duration

	// HealthTTL is how long a readiness probe result is trusted before the
	// next selection re-probes (default 2s). Failed nodes are retried after
	// one TTL, so a vanished replica costs at most one request window.
	HealthTTL time.Duration

	// MaxBody caps JSON request bodies at the router (default 64 MiB) and
	// MaxUpload caps dense-matrix uploads (default 8 GiB); both answer 413
	// over the cap, before anything is proxied to a node.
	MaxBody   int64
	MaxUpload int64

	// Workers, when positive, is injected as the default worker count into
	// create specs that leave workers unset, so one router flag pins the
	// apply parallelism fleet-wide. 0 leaves specs untouched — each node
	// resolves an unset count to its own GOMAXPROCS.
	Workers int
}

// Router is the client-facing front of a cluster: it owns the ring, proxies
// the single-node /matrices wire protocol to owners, fans reads across
// owner+replicas with readiness-checked failover, replicates new builds, and
// coordinates sharded applies. All methods are safe for concurrent use.
type Router struct {
	cfg    RouterConfig
	ring   *Ring
	client *http.Client

	rr atomic.Uint64 // read-rotation counter

	mu     sync.Mutex
	health map[string]healthState
	repl   map[string]map[string]bool // name -> replica addr -> installed
}

type healthState struct {
	ok      bool
	checked time.Time
}

// NewRouter builds a router over the given members.
func NewRouter(cfg RouterConfig) *Router {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.HealthTTL <= 0 {
		cfg.HealthTTL = 2 * time.Second
	}
	lim := api.Limits{JSONBody: cfg.MaxBody, Upload: cfg.MaxUpload}.WithDefaults()
	cfg.MaxBody, cfg.MaxUpload = lim.JSONBody, lim.Upload
	return &Router{
		cfg:    cfg,
		ring:   NewRing(cfg.Vnodes, cfg.Members...),
		client: &http.Client{},
		health: make(map[string]healthState),
		repl:   make(map[string]map[string]bool),
	}
}

// Handler returns the router's HTTP surface:
//
//	POST   /matrices                   create on the owner, then replicate
//	GET    /matrices                   aggregate listing across nodes
//	GET    /matrices/{name}            proxy to a holder
//	POST   /matrices/{name}/data       stream a dense upload to the owner, then replicate
//	POST   /matrices/{name}/apply      read: rotate across owner+replicas
//	POST   /matrices/{name}/shardapply distributed scatter/gather apply
//	DELETE /matrices/{name}            delete on owner and replicas
//	GET    /cluster/route/{name}       placement + replication status
//	GET/POST /cluster/members          view / change membership
//	GET    /healthz                    router liveness
//	GET    /readyz                     per-member readiness fan-out
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /matrices", rt.createHandler)
	mux.HandleFunc("GET /matrices", rt.listHandler)
	mux.HandleFunc("GET /matrices/{name}", rt.getHandler)
	mux.HandleFunc("POST /matrices/{name}/data", rt.uploadHandler)
	mux.HandleFunc("POST /matrices/{name}/apply", rt.applyHandler)
	mux.HandleFunc("POST /matrices/{name}/shardapply", rt.shardApplyHandler)
	mux.HandleFunc("DELETE /matrices/{name}", rt.deleteHandler)
	mux.HandleFunc("GET /cluster/route/{name}", rt.routeHandler)
	mux.HandleFunc("GET /cluster/members", rt.membersHandler)
	mux.HandleFunc("POST /cluster/members", rt.membersChangeHandler)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", rt.readyzHandler)
	return mux
}

// placement returns the owner-first candidate list for a name.
func (rt *Router) placement(name string) []string {
	return rt.ring.Owners(name, rt.cfg.Replicas)
}

// healthy reports whether addr answered its last readiness probe, probing
// anew when the cached result is older than HealthTTL. Readiness is the
// node's /readyz endpoint — a node that cannot answer it (down, partitioned,
// wedged) is skipped by read selection until a later probe succeeds.
func (rt *Router) healthy(addr string) bool {
	rt.mu.Lock()
	st, seen := rt.health[addr]
	rt.mu.Unlock()
	if seen && time.Since(st.checked) < rt.cfg.HealthTTL {
		return st.ok
	}
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HealthTTL)
	defer cancel()
	ok := false
	if req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/readyz", nil); err == nil {
		if resp, err := rt.client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
	}
	rt.mu.Lock()
	rt.health[addr] = healthState{ok: ok, checked: time.Now()}
	rt.mu.Unlock()
	return ok
}

// markDown records a request failure so the next selections skip the node
// until the health TTL expires and a probe readmits it.
func (rt *Router) markDown(addr string) {
	rt.mu.Lock()
	rt.health[addr] = healthState{ok: false, checked: time.Now()}
	rt.mu.Unlock()
}

// forward proxies body to addr+path with the router timeout and copies the
// response through. It reports false on transport failure (nothing written
// yet) so the caller can fail over.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, addr, path string, body []byte) bool {
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, r.Method, addr+path, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.markDown(addr)
		return false
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.Header().Set("X-H2-Node", addr)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

// readBody reads r's body up to limit bytes, answering 413 (over the limit)
// or 400 itself and returning false when it did.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		if mbe := (*http.MaxBytesError)(nil); errors.As(err, &mbe) {
			http.Error(w, fmt.Sprintf("request body exceeds %d byte limit", mbe.Limit), http.StatusRequestEntityTooLarge)
			return nil, false
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return body, true
}

// createHandler routes a create to the name's owner, then replicates the
// built matrix to the rest of the placement asynchronously: the 202 mirrors
// the single-node contract (the build itself is async), and
// /cluster/route/{name} reports when replicas are installed.
func (rt *Router) createHandler(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r, rt.cfg.MaxBody)
	if !ok {
		return
	}
	var req api.CreateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if rt.cfg.Workers > 0 && req.Spec.Workers == 0 {
		req.Spec.Workers = rt.cfg.Workers
		if nb, err := json.Marshal(req); err == nil {
			body = nb
		}
	}
	cands := rt.placement(req.Name)
	if len(cands) == 0 {
		http.Error(w, "cluster: no members", http.StatusServiceUnavailable)
		return
	}
	owner := cands[0]
	rt.mu.Lock()
	rt.repl[req.Name] = make(map[string]bool)
	rt.mu.Unlock()
	if !rt.forward(w, r, owner, "/matrices", body) {
		http.Error(w, fmt.Sprintf("cluster: owner %s unreachable", owner), http.StatusBadGateway)
		return
	}
	if len(cands) > 1 {
		go rt.replicate(req.Name, owner, cands[1:])
	}
}

// uploadHandler streams a dense-matrix upload through to the name's owner.
// Unlike the JSON endpoints the body is never buffered in the router — it can
// be gigabytes — so there is no failover: a transport failure mid-stream
// answers 502 and the client retries. On a 202 from the owner the placement's
// replicas are installed asynchronously from the owner's serialized export,
// exactly as for a kernel create.
func (rt *Router) uploadHandler(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	cands := rt.placement(name)
	if len(cands) == 0 {
		http.Error(w, "cluster: no members", http.StatusServiceUnavailable)
		return
	}
	owner := cands[0]
	rt.mu.Lock()
	rt.repl[name] = make(map[string]bool)
	rt.mu.Unlock()

	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.Timeout)
	defer cancel()
	url := owner + "/matrices/" + name + "/data"
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, http.MaxBytesReader(w, r.Body, rt.cfg.MaxUpload))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if r.ContentLength > 0 {
		req.ContentLength = r.ContentLength
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		// A tripped body limit surfaces as the transport error here; that is
		// the client's fault, not the owner's, so only mark the node down for
		// genuine transport failures.
		if mbe := (*http.MaxBytesError)(nil); errors.As(err, &mbe) {
			http.Error(w, fmt.Sprintf("upload exceeds %d byte limit", mbe.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		rt.markDown(owner)
		http.Error(w, fmt.Sprintf("cluster: owner %s unreachable: %v", owner, err), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.Header().Set("X-H2-Node", owner)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	if resp.StatusCode == http.StatusAccepted && len(cands) > 1 {
		go rt.replicate(name, owner, cands[1:])
	}
}

// replicate waits for the owner's build, then streams the serialized matrix
// to each replica. The transport is the spill-file format — CRC-tailed, so a
// torn transfer is rejected by the receiving node, which simply stays
// without the replica (reads fall back to the owner).
func (rt *Router) replicate(name, owner string, targets []string) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.Timeout)
	defer cancel()
	if !rt.waitReady(ctx, owner, name) {
		return
	}
	for _, tgt := range targets {
		if err := rt.copyInstance(ctx, name, owner, tgt); err != nil {
			continue
		}
		rt.mu.Lock()
		if m := rt.repl[name]; m != nil {
			m[tgt] = true
		}
		rt.mu.Unlock()
	}
}

// waitReady polls the owner until the instance can be exported (true) or
// reaches a state that never will be (false). "evicted" counts as ready:
// the owner's export handler waits on the registry, which rehydrates a
// spilled instance, and a failed export only skips that target.
func (rt *Router) waitReady(ctx context.Context, owner, name string) bool {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, owner+"/matrices/"+name, nil)
		if err != nil {
			return false
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			return false
		}
		var inf struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&inf)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return false
		}
		switch inf.State {
		case "ready", "evicted":
			return true
		case "failed", "closed":
			return false
		}
		select {
		case <-ctx.Done():
			return false
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// copyInstance pipes owner's export stream into target's replica install.
func (rt *Router) copyInstance(ctx context.Context, name, owner, target string) error {
	get, err := http.NewRequestWithContext(ctx, http.MethodGet, owner+"/cluster/export/"+name, nil)
	if err != nil {
		return err
	}
	resp, err := rt.client.Do(get)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: export %s from %s: status %d", name, owner, resp.StatusCode)
	}
	put, err := http.NewRequestWithContext(ctx, http.MethodPut, target+"/cluster/replicas/"+name, resp.Body)
	if err != nil {
		return err
	}
	put.Header.Set("Content-Type", "application/octet-stream")
	presp, err := rt.client.Do(put)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("cluster: install %s on %s: status %d", name, target, presp.StatusCode)
	}
	return nil
}

// applyHandler serves a read: candidates rotate across owner+replicas so
// load spreads, unhealthy nodes are skipped via their readiness probes, and
// a transport failure fails over to the next holder — a read survives any
// single node disappearing as long as one holder remains.
func (rt *Router) applyHandler(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, ok := rt.readBody(w, r, rt.cfg.MaxBody)
	if !ok {
		return
	}
	cands := rt.placement(name)
	if len(cands) == 0 {
		http.Error(w, "cluster: no members", http.StatusServiceUnavailable)
		return
	}
	start := int(rt.rr.Add(1)) % len(cands)
	var skipped []string
	for i := 0; i < len(cands); i++ {
		addr := cands[(start+i)%len(cands)]
		if !rt.healthy(addr) {
			skipped = append(skipped, addr)
			continue
		}
		if rt.forward(w, r, addr, "/matrices/"+name+"/apply", body) {
			return
		}
	}
	// Last resort: health data may be stale; try the skipped nodes once.
	for _, addr := range skipped {
		if rt.forward(w, r, addr, "/matrices/"+name+"/apply", body) {
			return
		}
	}
	http.Error(w, fmt.Sprintf("cluster: no holder of %q reachable", name), http.StatusBadGateway)
}

// shardApplyRequest is the router-level distributed apply: like apply, plus
// the shard plan knobs. Zero NShards spreads over every holder; zero
// CutLevel lets the coordinator pick the shallowest level wide enough.
type shardApplyRequest struct {
	B         []float64 `json:"b"`
	NShards   int       `json:"nshards,omitempty"`
	CutLevel  int       `json:"cut_level,omitempty"`
	Transpose bool      `json:"transpose,omitempty"`
}

// shardApplyHandler partitions one product across the holders of a name: the
// owner coordinates, replicas compute subtree partials. Shards assigned to
// the coordinator itself are passed as local (empty peer) rather than
// self-HTTP calls.
func (rt *Router) shardApplyHandler(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req shardApplyRequest
	if !api.DecodeJSON(w, r, rt.cfg.MaxBody, &req) {
		return
	}
	cands := rt.placement(name)
	if len(cands) == 0 {
		http.Error(w, "cluster: no members", http.StatusServiceUnavailable)
		return
	}
	if req.NShards <= 0 {
		req.NShards = len(cands)
	}
	// The coordinator is the first healthy holder; the rest serve shards.
	coord := ""
	var workers []string
	for _, addr := range cands {
		if !rt.healthy(addr) {
			continue
		}
		if coord == "" {
			coord = addr
		} else {
			workers = append(workers, addr)
		}
	}
	if coord == "" {
		http.Error(w, fmt.Sprintf("cluster: no holder of %q reachable", name), http.StatusBadGateway)
		return
	}
	peers := make([]string, req.NShards)
	for s := range peers {
		if len(workers) > 0 {
			peers[s] = workers[s%len(workers)]
		} // else "": every shard recomputed locally on the coordinator
	}
	body, err := json.Marshal(gatherRequest{
		Name: name, NShards: req.NShards, CutLevel: req.CutLevel,
		Transpose: req.Transpose, B: req.B, Peers: peers,
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if !rt.forward(w, r, coord, "/cluster/gather", body) {
		http.Error(w, fmt.Sprintf("cluster: coordinator %s unreachable", coord), http.StatusBadGateway)
	}
}

// getHandler proxies an instance lookup to the first reachable holder.
func (rt *Router) getHandler(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	for _, addr := range rt.placement(name) {
		if rt.forward(w, r, addr, "/matrices/"+name, nil) {
			return
		}
	}
	http.Error(w, fmt.Sprintf("cluster: no holder of %q reachable", name), http.StatusBadGateway)
}

// deleteHandler removes an instance everywhere: a delete on the owner, a
// replica drop on the rest of the placement. Partial failures answer 502 so
// the client knows to retry.
func (rt *Router) deleteHandler(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	cands := rt.placement(name)
	if len(cands) == 0 {
		http.Error(w, "cluster: no members", http.StatusServiceUnavailable)
		return
	}
	failed := 0
	for i, addr := range cands {
		path := "/cluster/replicas/" + name
		method := http.MethodDelete
		if i == 0 {
			path = "/matrices/" + name
		}
		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.Timeout)
		req, err := http.NewRequestWithContext(ctx, method, addr+path, nil)
		if err == nil {
			if resp, derr := rt.client.Do(req); derr == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				// The owner may 404 a name created before a membership change;
				// dropping a replica 404s never (204). Both mean "gone".
				if resp.StatusCode >= 500 {
					failed++
				}
			} else {
				rt.markDown(addr)
				failed++
			}
		} else {
			failed++
		}
		cancel()
	}
	rt.mu.Lock()
	delete(rt.repl, name)
	rt.mu.Unlock()
	if failed > 0 {
		http.Error(w, fmt.Sprintf("cluster: delete %q incomplete on %d node(s)", name, failed), http.StatusBadGateway)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// listHandler aggregates every node's listing.
func (rt *Router) listHandler(w http.ResponseWriter, r *http.Request) {
	type nodeList struct {
		Node      string          `json:"node"`
		Err       string          `json:"err,omitempty"`
		Instances json.RawMessage `json:"instances,omitempty"`
	}
	members := rt.ring.Members()
	out := make([]nodeList, len(members))
	var wg sync.WaitGroup
	for i, addr := range members {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			out[i].Node = addr
			ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.Timeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/matrices", nil)
			if err != nil {
				out[i].Err = err.Error()
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				out[i].Err = err.Error()
				return
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				out[i].Err = err.Error()
				return
			}
			out[i].Instances = raw
		}(i, addr)
	}
	wg.Wait()
	api.WriteJSON(w, http.StatusOK, struct {
		Nodes []nodeList `json:"nodes"`
	}{out})
}

// RouteInfo is the GET /cluster/route/{name} wire format.
type RouteInfo struct {
	Name       string   `json:"name"`
	Owner      string   `json:"owner"`
	Replicas   []string `json:"replicas"`   // placement after the owner
	Replicated []string `json:"replicated"` // replicas confirmed installed
}

func (rt *Router) routeHandler(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	cands := rt.placement(name)
	ri := RouteInfo{Name: name, Replicas: []string{}, Replicated: []string{}}
	if len(cands) > 0 {
		ri.Owner = cands[0]
		ri.Replicas = cands[1:]
	}
	rt.mu.Lock()
	for addr, ok := range rt.repl[name] {
		if ok {
			ri.Replicated = append(ri.Replicated, addr)
		}
	}
	rt.mu.Unlock()
	sort.Strings(ri.Replicated)
	api.WriteJSON(w, http.StatusOK, ri)
}

// memberChange is the POST /cluster/members wire format. Adds are applied
// before removes; placement shifts immediately (consistent hashing keeps the
// movement minimal), and names whose owner changed re-replicate on their
// next create — already-placed instances keep serving from their old holders
// until then, which reads tolerate via the route's failover.
type memberChange struct {
	Add    []string `json:"add,omitempty"`
	Remove []string `json:"remove,omitempty"`
}

func (rt *Router) membersHandler(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, http.StatusOK, struct {
		Members []string `json:"members"`
	}{rt.ring.Members()})
}

func (rt *Router) membersChangeHandler(w http.ResponseWriter, r *http.Request) {
	var req memberChange
	if !api.DecodeJSON(w, r, rt.cfg.MaxBody, &req) {
		return
	}
	for _, a := range req.Add {
		rt.ring.Add(a)
	}
	for _, a := range req.Remove {
		rt.ring.Remove(a)
		rt.mu.Lock()
		delete(rt.health, a)
		rt.mu.Unlock()
	}
	api.WriteJSON(w, http.StatusOK, struct {
		Members []string `json:"members"`
	}{rt.ring.Members()})
}

// readyzHandler fans the readiness probe across the fleet.
func (rt *Router) readyzHandler(w http.ResponseWriter, _ *http.Request) {
	members := rt.ring.Members()
	type memberHealth struct {
		Node string `json:"node"`
		OK   bool   `json:"ok"`
	}
	out := make([]memberHealth, len(members))
	var wg sync.WaitGroup
	ok := true
	var okMu sync.Mutex
	for i, addr := range members {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			h := rt.healthy(addr)
			out[i] = memberHealth{Node: addr, OK: h}
			if !h {
				okMu.Lock()
				ok = false
				okMu.Unlock()
			}
		}(i, addr)
	}
	wg.Wait()
	api.WriteJSON(w, http.StatusOK, struct {
		OK      bool           `json:"ok"`
		Members []memberHealth `json:"members"`
	}{ok, out})
}
