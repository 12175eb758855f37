package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestIter(id int) *iter {
	return &iter{id: id, epoch: time.Now(), prof: newProfileAgg(), layer: map[string]float64{}}
}

// references caches each workload's reference outputs at a seed.
var references sync.Map

func reference(t *testing.T, name string, seed int64) outputs {
	t.Helper()
	type key struct {
		name string
		seed int64
	}
	if o, ok := references.Load(key{name, seed}); ok {
		return o.(outputs)
	}
	o, err := protect(func() (outputs, error) { return workloads[name].reference(seed) })
	if err != nil {
		t.Fatalf("%s reference at seed %d: %v", name, seed, err)
	}
	references.Store(key{name, seed}, o)
	return o
}

// TestWorkloadsReproduceReference drives every workload the way the
// benchmark does and checks it against the exp entry point: the benchmark's
// own paper_comparison session against exp.RunComparison, its fleet arms
// against exp.RunFleetCampaign, and so on. Two iterations in one process
// must also agree on every deterministic count.
func TestWorkloadsReproduceReference(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale workloads take seconds each")
	}
	for _, name := range []string{"paper_comparison", "paper_live", "partitioned_2048", "fleet_2k_30d"} {
		seeds := []int64{1}
		if name == "fleet_2k_30d" {
			seeds = append(seeds, 2) // a seed without committed expectations
		}
		for _, seed := range seeds {
			w := workloads[name]
			want := reference(t, name, seed)
			if exp, ok := w.committed[seed]; ok {
				if err := compare("committed", exp, want); err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
			}
			var first outputs
			for id := 1; id <= 2; id++ {
				it := newTestIter(id)
				got, err := protect(func() (outputs, error) { return w.iterate(seed, it) })
				if err != nil {
					t.Fatalf("%s seed %d iteration %d: %v", name, seed, id, err)
				}
				if err := compare("output", want, got); err != nil {
					t.Fatalf("%s seed %d iteration %d: %v", name, seed, id, err)
				}
				for k, v := range it.detCounts() {
					got[k] = v
				}
				if first == nil {
					first = got
				} else if err := compare("repeat", first, got); err != nil {
					t.Errorf("%s seed %d: deterministic counts differ between runs: %v", name, seed, err)
				}
				if it.wall <= 0 {
					t.Errorf("%s: iteration %d recorded no wall time", name, id)
				}
			}
		}
	}
}

// TestCheckRejectsPerturbedExpectation moves each committed expectation by
// one unit and requires the check to refuse the real reference outputs.
func TestCheckRejectsPerturbedExpectation(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale workloads take seconds each")
	}
	for name, w := range workloads {
		got := reference(t, name, 1)
		exp := w.committed[1]
		if len(exp) == 0 {
			t.Fatalf("%s: no committed expectation for seed 1", name)
		}
		if err := compare("committed", exp, got); err != nil {
			t.Fatalf("%s: unperturbed expectation rejected: %v", name, err)
		}
		for k := range exp {
			bad := outputs{}
			for k2, v := range exp {
				bad[k2] = v
			}
			bad[k]++
			if compare("committed", bad, got) == nil {
				t.Errorf("%s: expectation %s perturbed by one still accepted", name, k)
			}
		}
	}
}

// TestRunCountsFailedIterations checks the failure accounting: an iteration
// whose output disagrees with the reference, or that panics, is one failed
// operation and the run goes on.
func TestRunCountsFailedIterations(t *testing.T) {
	calls := 0
	w := workload{
		reference: func(int64) (outputs, error) { return outputs{"x": 1}, nil },
		iterate: func(_ int64, it *iter) (outputs, error) {
			calls++
			it.timed(func() { time.Sleep(10 * time.Millisecond) })
			switch calls {
			case 2:
				return outputs{"x": 2}, nil
			case 3:
				panic("boom")
			}
			return outputs{"x": 1}, nil
		},
	}
	r := run(w, 1, 8, false) // room for three iterations and their calibration runs
	if r.attempted < 3 || r.failed != 2 {
		t.Fatalf("attempted %d failed %d, want >= 3 attempted and 2 failed (errors %v)", r.attempted, r.failed, r.errors)
	}
	if r.metrics["wall_s"].Value <= 0 {
		t.Fatalf("wall_s = %v, want the good iterations' median", r.metrics["wall_s"])
	}

	w.reference = func(int64) (outputs, error) { panic("no reference") }
	if r := run(w, 1, 1, false); r.attempted != 1 || r.failed != 1 {
		t.Fatalf("failing reference: attempted %d failed %d, want 1 and 1", r.attempted, r.failed)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables the
// program reports from in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); len(got) == 0 || strings.Join(got, "|") != want {
		t.Errorf("BENCHMARK.json workloads %v, program has %s", got, want)
	}
	check := func(section string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", section, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s",
					section, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"ibmig/internal/sim.(*Engine).Run"}, "sim.self_cpu_frac"},
		{[]string{"ibmig/internal/sim.(*Queue[go.shape.struct { ibmig/internal/exp.x int }]).Put"}, "sim.self_cpu_frac"},
		{[]string{"ibmig/internal/mem.(*Region).Write"}, "payload.self_cpu_frac"},
		{[]string{"ibmig/internal/exp.RunPartitionedLU.func1"}, "exp.self_cpu_frac"},
		{[]string{"ibmig/internal/health.(*RateEstimator).Observe"}, "other.self_cpu_frac"},
		{[]string{"container/heap.Pop", "ibmig/internal/sim.(*Engine).Run"}, "sim.heap_cpu_frac"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "ibmig/internal/ib.f"}, "runtime.alloc_cpu_frac"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc_self_cpu_frac"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "sim.switch_cpu_frac"},
		{[]string{"runtime.memmove", "ibmig/internal/payload.f"}, "runtime.other_cpu_frac"},
		{[]string{"internal/runtime/atomic.(*Uint32).Load", "runtime.gopark"}, "sim.switch_cpu_frac"},
		{[]string{"sort.Sort"}, "stdlib.self_cpu_frac"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestProfileDecode decodes a real CPU profile of a busy loop in this
// package and finds its samples.
func TestProfileDecode(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x += i
		}
	}
	pprof.StopCPUProfile()
	sink = x
	a := newProfileAgg()
	if err := a.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range a.ns {
		total += v
	}
	if total == 0 {
		t.Fatalf("no CPU time decoded from a %d-byte profile", buf.Len())
	}
	if f := a.fractions(); f["other.self_cpu_frac"] < 0.5 {
		t.Errorf("busy loop in ibmig/perfbench got %.2f of CPU as other, want most: %v", f["other.self_cpu_frac"], f)
	}
}

var sink int

// TestCalibrationKernelRepeats checks that the calibration kernel does the
// same work on every call, so only the host's speed can move its time.
func TestCalibrationKernelRepeats(t *testing.T) {
	if a, b := calKernel(), calKernel(); a != b {
		t.Fatalf("calibration digests differ: %#x, %#x", a, b)
	}
	if s := calibrate(); s <= 0 {
		t.Fatalf("calibrate() = %v s, want a positive time", s)
	}
}
