package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
)

// The harness self-test: BENCHMARK.json and the harness agree on workloads
// and metric names, and what a run prints is exactly the declared set.
// Run with `cd perfbench && go test .`.

// The test runs in perfbench/, one level below the checkout root.
var testSpec = "../" + specFile

func readSpec(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	raw, err := os.ReadFile(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	return top
}

func TestSpecMatchesHarness(t *testing.T) {
	top := readSpec(t)
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", keys, want)
	}
	s, err := loadSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameNames(endToEndDefs, s.EndToEnd); err != nil {
		t.Errorf("end_to_end: %v", err)
	}
	if err := sameNames(perLayerDefs, s.PerLayer); err != nil {
		t.Errorf("per_layer: %v", err)
	}
	var wl []struct{ Name, Why string }
	if err := json.Unmarshal(top["workloads"], &wl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range wl {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters", w.Name)
		}
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, workloadNames())
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// filled returns a bench with every metric measured.
func filled(traced bool) *bench {
	b := newBench("serve-warm", 1, 1, traced, io.Discard)
	for i, d := range endToEndDefs {
		b.set(d.Name, float64(i+1))
	}
	b.attempted = 3
	return b
}

func TestEmitPrintsExactlyTheDeclaredSet(t *testing.T) {
	s, err := loadSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		if code := filled(traced).emit(&out, s); code != 0 {
			t.Fatalf("traced=%v: exit %d", traced, code)
		}
		var res result
		if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &res); err != nil {
			t.Fatal(err)
		}
		want := s.EndToEnd
		if traced {
			want = s.PerLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("traced=%v: printed %d metrics, declared %d", traced, len(res.Metrics), len(want))
		}
		for _, d := range want {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("traced=%v: metric %s printed as %+v (ok=%v), declared unit %s", traced, d.Name, m, ok, d.Unit)
			}
		}
		if !res.Correct || res.Attempted != 3 {
			t.Errorf("traced=%v: result %+v", traced, res)
		}
	}
}

func TestFailedCheckReportsNoNumbers(t *testing.T) {
	s, err := loadSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	b := filled(false)
	b.check(false, "replay diverged")
	var out bytes.Buffer
	if code := b.emit(&out, s); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var res result
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || len(res.Metrics) != 0 {
		t.Errorf("failed run printed %+v", res)
	}

	b = filled(false)
	delete(b.e2e, "setup_s")
	if code := b.emit(io.Discard, s); code != 2 {
		t.Errorf("a missing metric exits %d, want 2", code)
	}
}

func TestSupportedAndCovered(t *testing.T) {
	if supported(99, 0.9) || !supported(100, 0.9) || !supported(1000, 0.99) || supported(999, 0.99) {
		t.Error("supported: ten samples must lie beyond the percentile")
	}
	got := covered([][2]int64{{5, 8}, {2, 4}, {3, 6}}, 0, 7)
	if got != 5 { // [2,7) clipped to the parent
		t.Errorf("covered = %d, want 5", got)
	}
}

func TestStratifiedSizesCoverEveryStratumOnce(t *testing.T) {
	const n, max = 100, 512
	sizes := stratifiedSizes(rand.New(rand.NewSource(7)), n, max)
	var half int
	for _, s := range sizes[:n/2] {
		half += s
	}
	sorted := append([]int(nil), sizes...)
	sort.Ints(sorted)
	for k, s := range sorted {
		if lo, hi := 1+k*max/n, 1+(k+1)*max/n; s < lo || s > hi {
			t.Fatalf("the %d-th smallest size %d lies outside stratum [%d, %d]", k, s, lo, hi)
		}
	}
	if total := n * max / 2; half < total*45/100 || half > total*55/100 {
		t.Errorf("first half of the burst carries %d of ~%d total work", half, total)
	}
}
