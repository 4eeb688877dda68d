package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	hot := []int{3, 5, 8}
	a := schedule(42, 800, 2*time.Second, 3, 4608, hot)
	b := schedule(42, 800, 2*time.Second, 3, 4608, hot)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a) != 1600 {
		t.Fatalf("800 req/s for 2s scheduled %d requests, want 1600", len(a))
	}
	if c := schedule(43, 800, 2*time.Second, 3, 4608, hot); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same schedule")
	}
	batches, hits := 0, 0
	for i, q := range a {
		if i > 0 && q.due <= a[i-1].due {
			t.Fatalf("request %d due at %v, not after %v", i, q.due, a[i-1].due)
		}
		switch {
		case q.batch:
			batches++
			if len(q.points) != batchRows {
				t.Fatalf("batch with %d rows", len(q.points))
			}
		case q.hot:
			hits++
		}
	}
	if f := float64(batches) / float64(len(a)); math.Abs(f-batchFrac) > 0.03 {
		t.Errorf("batch share %.3f, want about %.2f", f, batchFrac)
	}
	if f := float64(hits) / float64(len(a)-batches); math.Abs(f-hotFrac) > 0.05 {
		t.Errorf("hot share of singles %.3f, want about %.2f", f, hotFrac)
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nprinted by the benchmark:\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nprinted by the benchmark:\n%v", layers, perLayer)
	}
	ws := workloads()
	if len(ws) != len(b.Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, benchmark has %q: %q", i, b.Workloads[i], w.Name, w.Why)
		}
	}
}

// checkMetrics asserts a result carries exactly the given metrics, each
// with its unit and a finite value.
func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
			continue
		}
		if v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s = %v %q, want a finite value in %q", d.Name, v.Value, v.Unit, d.Unit)
		}
	}
}

func TestSmokeEmitsEveryEndToEndMetric(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.Name, func(t *testing.T) {
			res, err := run(context.Background(), w.smoke(), 5, 3, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("smoke run not correct: attempted %d failed %d: %v", res.Attempted, res.Failed, res.problems)
			}
			checkMetrics(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
				}
			}
		})
	}
}

func TestSmokeTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	w, err := workloadByName("dse-active")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, err := run(context.Background(), w.smoke(), 5, 3, true, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced smoke run not correct: %v", res.problems)
	}
	checkMetrics(t, res, perLayer)
	for _, name := range []string{"mem.pass_s", "mem.passes", "bpred.passes", "core.train_s.NN-E", "active.train_s",
		"http.rtt_us", "serve.handler_us.single", "serve.kernel_ns_per_row.TREE-B", "self_s.mem", "self_s.gateway"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("per-layer metric %s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	if _, err := os.Stat(dir + "/spans/dse-active-seed5.jsonl"); err != nil {
		t.Errorf("span file not written: %v", err)
	}
}

func TestCorruptedPredictionCountsAsFailed(t *testing.T) {
	w, err := workloadByName("dse-sweep")
	if err != nil {
		t.Fatal(err)
	}
	w = w.smoke()
	ctx := context.Background()
	ex := w.runExplore(ctx, 9, 0)
	if ex.last == nil {
		t.Fatalf("explore failed: %v", ex.problems)
	}
	fx, err := buildFixture(ctx, t.TempDir(), ex.last.res.Reports, w.Kinds, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Every hot single of every model now disagrees with what the
	// replicas serve in its last bit.
	for _, m := range fx.models {
		for _, p := range fx.hot {
			m.golden[p] = math.Float64frombits(math.Float64bits(m.golden[p]) ^ 1)
		}
	}
	st, _, err := w.runServe(ctx, 9, 3, fx, nil)
	if err != nil {
		t.Fatal(err)
	}
	hot := 0
	for _, o := range st.step.outcomes {
		if o.hot {
			hot++
		}
	}
	if hot == 0 || st.step.failed < hot {
		t.Fatalf("%d failed of %d attempted with %d corrupted hot requests", st.failed, st.attempted, hot)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer()
	at := func(us int) time.Time { return tr.t0.Add(time.Duration(us) * time.Microsecond) }
	root := tr.record("x", 0, "run.root", at(0), at(100))
	tr.record("x", root, "mem.a", at(10), at(40))
	tr.record("x", root, "mem.b", at(30), at(60)) // overlaps a
	self := tr.selfTimes()
	if got, want := self["run"], 50e-6; math.Abs(got-want) > 1e-12 {
		t.Errorf("run self time %v, want %v", got, want)
	}
	if got, want := self["mem"], 60e-6; math.Abs(got-want) > 1e-12 {
		t.Errorf("mem self time %v, want %v", got, want)
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	q, _ := tailQuantile(xs, 0.99, 10)
	if math.Abs(q-0.95) > 1e-12 {
		t.Errorf("quantile read %v, want 0.95 for 200 samples", q)
	}
	if q, _ := tailQuantile(make([]float64, 5000), 0.99, 10); q != 0.99 {
		t.Errorf("quantile read %v, want 0.99 for 5000 samples", q)
	}
}
