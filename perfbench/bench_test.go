package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"lmas/internal/dsmsort"
	"lmas/internal/records"
)

// testSeed differs from the seeds the benchmark is usually run with.
const testSeed = 977

// Every workload validates at a tiny size, and two runs of it give
// byte-identical reports and virtual times.
func TestWorkloadsTinyDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := runRep(w, w.tiny, testSeed, false, t.TempDir())
			b := runRep(w, w.tiny, testSeed, false, t.TempDir())
			for _, s := range []sample{a, b} {
				if s.Err != "" {
					t.Fatalf("rep failed: %s", s.Err)
				}
			}
			if a.Digest == "" || a.Digest != b.Digest {
				t.Fatalf("report digests differ: %q vs %q", a.Digest, b.Digest)
			}
			if a.Virtual <= 0 || a.Virtual != b.Virtual {
				t.Fatalf("virtual times differ: %v vs %v", a.Virtual, b.Virtual)
			}
		})
	}
}

// A traced rep reports every per-layer metric the workload produces and
// the same report as an untraced one.
func TestTracedRepMatchesUntraced(t *testing.T) {
	w, _ := lookup("sort-observed")
	plain := runRep(w, w.tiny, testSeed, false, t.TempDir())
	traced := runRep(w, w.tiny, testSeed, true, t.TempDir())
	if plain.Err != "" || traced.Err != "" {
		t.Fatalf("reps failed: %q, %q", plain.Err, traced.Err)
	}
	if plain.Digest != traced.Digest {
		t.Fatalf("tracing changed the report: %s vs %s", plain.Digest, traced.Digest)
	}
	for _, name := range []string{"cluster.new_s", "dsmsort.run_formation_s", "dsmsort.merge_pass_alloc_mb",
		"trace.write_json_s", "sim.handoff_ns", "pqueue.pop_min_ns", "records.checksum_mb_per_s",
		"dsmsort.pass1.runs", "heap.mallocs", "cpu.other"} {
		if _, ok := traced.Layers[name]; !ok {
			t.Errorf("traced rep has no %s", name)
		}
	}
	if traced.Layers["dsmsort.pass1.runs"] <= 0 || traced.Layers["sim.handoff_ns"] <= 0 {
		t.Errorf("implausible layers: %v", traced.Layers)
	}
}

// A rep that panics is recovered and counted as failed, and the reps after
// it still run. MakeInput with packetRecords=0 panics in loadInput.
func TestFailedRepIsCounted(t *testing.T) {
	good, _ := lookup("sort-1m")
	bad := workload{name: "bad-packet", unit: "records", tiny: 64, run: func(m *meter, n int, seed int64) error {
		cl := sortCluster()
		dsmsort.MakeInput(cl, n, records.Uniform{}, seed, 0)
		return nil
	}}
	i := 0
	rep := func(bool) sample {
		i++
		if i == 1 {
			return runRep(bad, bad.tiny, testSeed, false, t.TempDir())
		}
		return runRep(good, good.tiny, testSeed, false, t.TempDir())
	}
	untraced, traced := collect(0, false, rep)
	if len(untraced) != minReps || len(traced) != 0 {
		t.Fatalf("collected %d untraced, %d traced reps", len(untraced), len(traced))
	}
	if !strings.HasPrefix(untraced[0].Err, "panic:") {
		t.Fatalf("first rep error %q, want a recovered panic", untraced[0].Err)
	}
	res := summarize(good, untraced, nil, false, io.Discard)
	if res.Correct || res.Attempted != minReps || res.Failed != 1 {
		t.Fatalf("result %+v, want 1 of %d failed", res, minReps)
	}
	want := float64(minReps-1) / minReps
	if got := res.Metrics["ok_frac"].Value; got != want {
		t.Fatalf("ok_frac %v, want %v", got, want)
	}
	if res.Metrics["run_s"].Value <= 0 {
		t.Fatalf("run_s %v from the good reps", res.Metrics["run_s"].Value)
	}
}

// Reps whose reports disagree fail the run.
func TestDifferingReportsFail(t *testing.T) {
	w, _ := lookup("churn-100k")
	reps := []sample{{Run: 1, Digest: "a", Virtual: 1}, {Run: 1, Digest: "b", Virtual: 1}, {Run: 1, Digest: "a", Virtual: 2}}
	res := summarize(w, reps, nil, false, io.Discard)
	if res.Correct || res.Failed != 2 {
		t.Fatalf("result %+v, want 2 failed", res)
	}
}

// BENCHMARK.json names the workloads and metrics this program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, perfbench %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s/%s vs %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestClassify(t *testing.T) {
	for fn, want := range map[string]string{
		"lmas/internal/sim.(*Sim).Run":                 "sim",
		"lmas/internal/records.Buffer.Sort":            "records",
		"lmas/internal/dsmsort.RunFormation.func1":     "dsmsort",
		"lmas/internal/cluster.New":                    "other",
		"runtime.chanrecv":                             "runtime_sched",
		"runtime.scanobject":                           "gc",
		"runtime.mallocgc":                             "gc",
		"runtime.memmove":                              "",
		"sort.Slice":                                   "",
		"main.runSort":                                 "other",
		"lmas/internal/sim.(*Queue[go.shape.int]).Put": "sim",
	} {
		if got := classify(fn); got != want {
			t.Errorf("classify(%q) = %q, want %q", fn, got, want)
		}
	}
}
