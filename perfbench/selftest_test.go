package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, file []struct{ Name, Unit string }, code []metricSpec) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(file), len(code))
			return
		}
		for i := range code {
			if file[i].Name != code[i].name || file[i].Unit != code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					kind, i, file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, e2eMetrics)
	same("per_layer", bf.PerLayer, layerMetrics)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", names, workloadNames())
	}
}

// runTiny runs one workload at the tiny scale and returns its result line.
func runTiny(t *testing.T, workload string, trace, corrupt bool) result {
	t.Helper()
	cfg := config{
		workload: workload, seed: 3, seconds: 1, trace: trace,
		sz: scales["tiny"], outDir: t.TempDir(), corrupt: corrupt,
	}
	oc, err := workloads[workload](cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var out bytes.Buffer
	if err := emit(&out, cfg, oc); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return res
}

// TestTinyRunsPrintEveryMetric runs each workload untraced and traced and
// checks the result line: correct, and every metric present with its unit
// (end-to-end metrics also non-zero).
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res := runTiny(t, w, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			specs := e2eMetrics
			if trace {
				specs = layerMetrics
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", w, trace, s.name)
				case m.Unit != s.unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w, trace, s.name, m.Unit, s.unit)
				case !trace && !(m.Value > 0):
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, s.name, m.Value)
				}
			}
		}
	}
}

// TestGatesFireOnCorruptedAnswer flips one bit of the first answer each
// workload's gate sees: the run must report itself incorrect.
func TestGatesFireOnCorruptedAnswer(t *testing.T) {
	for _, w := range workloadNames() {
		res := runTiny(t, w, false, true)
		if res.Correct || res.Failed < 1 {
			t.Errorf("%s: corrupted answer passed the gates (correct=%v failed=%d)", w, res.Correct, res.Failed)
		}
	}
}

// TestAcceptedVersionsWindow pins the hot-swap gate: an answer may come
// from any version accepted between sending the request and receiving the
// answer, and from no version retired before the request was sent.
func TestAcceptedVersionsWindow(t *testing.T) {
	a := &specRef{ys: [][]float64{{1}}}
	b := &specRef{ys: [][]float64{{2}}}
	tn := &tenant{}
	tn.setRefs(a)
	sent := tn.epoch()
	tn.setRefs(a, b) // swap starts while the request is in flight
	tn.setRefs(b)    // swap done
	if !checkAnswer([]float64{2}, tn.refsSince(sent), 0) {
		t.Error("an answer from the version swapped in during the request was rejected")
	}
	if checkAnswer([]float64{2}, tn.refsAt(sent), 0) {
		t.Error("refsAt(sent) should hold only the version accepted at sending")
	}
	after := tn.epoch()
	if checkAnswer([]float64{1}, tn.refsSince(after), 0) {
		t.Error("an answer from a version retired before the request was accepted")
	}
	if checkAnswer([]float64{3}, tn.refsSince(sent), 0) {
		t.Error("an answer from no accepted version was accepted")
	}
}
