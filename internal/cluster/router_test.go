package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestWaitReadyAcceptsEvictedOwner pins that replication proceeds at once
// when the owner has spilled the instance: the export handler rehydrates
// it, so "evicted" must not be polled as if the build were still running.
func TestWaitReadyAcceptsEvictedOwner(t *testing.T) {
	var polls atomic.Int32
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		polls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"state":"evicted"}`))
	}))
	defer owner.Close()
	rt := NewRouter(RouterConfig{Members: []string{owner.URL}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if !rt.waitReady(ctx, owner.URL, "spilled") {
		t.Fatal("waitReady rejected an evicted owner")
	}
	if n := polls.Load(); n != 1 {
		t.Fatalf("waitReady polled %d times, want 1", n)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("waitReady took %v on an evicted owner", d)
	}
}
