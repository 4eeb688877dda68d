// Command perfbench is perfpred's end-to-end benchmark. Each workload runs
// the paper's loop through the repository's exported packages — simulate
// the Table 1 design space, sample, train, cross-validate, select — and
// then serves the trained models through a gateway in front of two
// replicas under an open-loop request schedule, checking every output.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload dse-sweep --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the fields
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	problems []string
}

func main() {
	name := flag.String("workload", "", "workload: dse-sweep or dse-active")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "measurement budget of one run, in seconds")
	traced := flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for served artifacts and span files")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	res, err := run(context.Background(), w, *seed, *seconds, *traced == 1, *out)
	if err != nil {
		fatal(err)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", p)
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		fmt.Printf("%-36s %14.6g %s\n", d.Name, v.Value, v.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes one workload run and assembles its result.
func run(ctx context.Context, w workload, seed int64, seconds float64, traced bool, outDir string) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	var ex *exploreStage
	layers := map[string]float64{}
	if traced {
		ex = &exploreStage{}
		for k, v := range w.traceExplore(ctx, seed, tr, ex) {
			layers[k] = v
		}
	} else {
		ex = w.runExplore(ctx, seed, w.exploreBudget(seconds))
	}
	if ex.last == nil {
		return nil, fmt.Errorf("%s: explore stage produced no result: %s", w.Name, strings.Join(ex.problems, "; "))
	}

	if err := os.MkdirAll(filepath.Join(outDir, "spans"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "models-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fx, err := buildFixture(ctx, dir, ex.last.res.Reports, w.Kinds, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: building serving fixture: %w", w.Name, err)
	}
	// The serve stage starts from a collected heap that holds nothing of
	// the explore stage but its numbers.
	ex.last = nil
	runtime.GC()
	sv, serveLayersM, err := w.runServe(ctx, seed, seconds, fx, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: serve stage: %w", w.Name, err)
	}

	fmt.Fprintf(os.Stderr, "perfbench: retained heap %.3f MB after the explore stage, %.3f MB after the serve stage\n", ex.retainedMB, sv.retainedMB)
	res := &result{
		Attempted: ex.attempted + sv.attempted,
		Failed:    ex.failed + sv.failed,
		Metrics:   map[string]metricValue{},
		problems:  append(ex.problems, sv.problems...),
	}
	res.Correct = res.Failed == 0
	if !traced {
		ref := sv.step
		v := map[string]float64{
			"setup_s":          median(ex.setupS) + median(sv.setupS),
			"dse_wall_s":       median(ex.wallS),
			"sim_points_per_s": median(ex.sweepRates),
			"retained_heap_mb": max(ex.retainedMB, sv.retainedMB),
			"ok_frac":          float64(res.Attempted-res.Failed) / float64(res.Attempted),
			"single_p50_ms":    median(ref.single),
			"batch_p50_ms":     median(ref.batch),
		}
		fill(res, endToEnd, v)
		return res, nil
	}
	for k, v := range serveLayersM {
		layers[k] = v
	}
	for layer, s := range tr.selfTimes() {
		layers["self_s."+layer] = s
	}
	fill(res, perLayer, layers)
	path := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.Name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return res, nil
}

// fill copies the named metrics into the result; a metric with no
// measurement reads 0, and a non-finite one marks the run incorrect.
func fill(res *result, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			res.problems = append(res.problems, fmt.Sprintf("metric %s is %v", d.Name, v))
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
}
