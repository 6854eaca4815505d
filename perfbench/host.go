package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"h2ds/internal/kernel"
	"h2ds/internal/pointset"
)

// hostMeta describes the machine and build, so per-layer rows can be read
// as a fraction of this host.
func hostMeta(cfg config) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"cpu_model":        cpuModel(),
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"llc":              llcSize(),
		"go_version":       runtime.Version(),
		"commit":           commit,
		"seed":             cfg.seed,
		"workload":         cfg.workload,
		"host_array_bytes": cfg.sz.hostBytes,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// llcSize reports the size of the highest cache level sysfs lists for
// cpu0.
func llcSize() string {
	size := "unknown"
	for i := 0; i < 8; i++ {
		b, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			break
		}
		size = strings.TrimSpace(string(b))
	}
	return size
}

// readRoof measures plain streamed-read bandwidth in GB/s with the given
// number of goroutines over one array of the given size: each goroutine
// sums its contiguous share with four independent accumulators. It reports
// the median of three passes after one page-touching pass.
func readRoof(buf []float64, workers int) float64 {
	var sink float64
	var mu sync.Mutex
	pass := func() time.Duration {
		t0 := time.Now()
		var wg sync.WaitGroup
		chunk := (len(buf) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, min((w+1)*chunk, len(buf))
			wg.Add(1)
			go func(part []float64) {
				defer wg.Done()
				var s0, s1, s2, s3 float64
				i := 0
				for ; i+4 <= len(part); i += 4 {
					s0 += part[i]
					s1 += part[i+1]
					s2 += part[i+2]
					s3 += part[i+3]
				}
				for ; i < len(part); i++ {
					s0 += part[i]
				}
				mu.Lock()
				sink += s0 + s1 + s2 + s3
				mu.Unlock()
			}(buf[lo:hi])
		}
		wg.Wait()
		return time.Since(t0)
	}
	pass()
	var ts []float64
	for r := 0; r < 3; r++ {
		ts = append(ts, pass().Seconds())
	}
	return float64(len(buf)*8) / median(ts) / 1e9
}

// hostRoofs allocates the roof array, measures it at one and two workers,
// and releases it before the workload allocates anything.
func hostRoofs(oc *outcome, bytes int64) {
	buf := make([]float64, bytes/8)
	for i := range buf {
		buf[i] = float64(i & 7)
	}
	oc.values["host.read_gbps_w1"] = readRoof(buf, 1)
	oc.values["host.read_gbps_w2"] = readRoof(buf, 2)
	buf = nil
	runtime.GC()
	debug.FreeOSMemory()
}

const tileSide = 192

// tileEvalsPerSec measures the OTF roof of one kernel: kernel evaluations
// per second of a fused BlockVecAdd tile (tileSide × tileSide, one worker)
// over the workload's own points, repeated for at least budget.
func tileEvalsPerSec(k kernel.Pairwise, pts *pointset.Points, budget time.Duration) float64 {
	n := pts.Len()
	side := min(tileSide, n/2)
	rows := make([]int, side)
	cols := make([]int, side)
	for i := range rows {
		rows[i] = i
		cols[i] = n - 1 - i
	}
	v := make([]float64, side)
	for i := range v {
		v[i] = 1
	}
	out := make([]float64, side)
	kernel.BlockVecAdd(out, k, pts, rows, pts, cols, v)
	reps := 0
	t0 := time.Now()
	for time.Since(t0) < budget {
		for r := 0; r < 8; r++ {
			kernel.BlockVecAdd(out, k, pts, rows, pts, cols, v)
		}
		reps += 8
	}
	return float64(reps*side*side) / time.Since(t0).Seconds()
}
