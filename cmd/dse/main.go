// Command dse runs one sampled design-space exploration (paper Figure 1a):
// simulate the Table 1 design space for a benchmark, sample a fraction of
// it, train the candidate models, estimate their errors by
// cross-validation, pick the best, and report how well the chosen model
// predicts the whole space.
//
// With -active the one-shot random sample becomes the seed of a
// model-guided active-learning loop: the committee of requested models
// retrains every round and the acquisition strategy picks which design
// points to simulate next, at the same total budget accounting.
//
// Usage:
//
//	dse -bench mcf -frac 0.01
//	dse -bench gcc -frac 0.03 -models LR-B,NN-E,NN-S -seed 7
//	dse -bench mcf -frac 0.01 -active -rounds 4 -batch 12 -acquire committee
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"perfpred"
	"perfpred/internal/obs"
	"perfpred/internal/progress"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dse: ")
	bench := flag.String("bench", "mcf", "benchmark workload (see -list)")
	frac := flag.Float64("frac", 0.01, "fraction of the design space to sample")
	modelsArg := flag.String("models", "LR-B,NN-E,NN-S", "comma-separated model kinds, or 'all' for every registered family incl. TREE-B")
	seed := flag.Int64("seed", 1, "master seed")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	epochs := flag.Float64("epochs", 1.0, "neural epoch scale")
	traceLen := flag.Int("tracelen", 0, "trace length override")
	stride := flag.Int("stride", 0, "design-space stride (0 = full space)")
	activeRun := flag.Bool("active", false, "run the model-guided active-learning loop instead of one-shot sampling")
	rounds := flag.Int("rounds", 4, "active: acquisition rounds after the initial sample")
	batch := flag.Int("batch", 0, "active: design points acquired per round (0 = initial sample / rounds)")
	acquire := flag.String("acquire", "committee", "active: acquisition strategy (see -list)")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit)")
	verbose := flag.Bool("v", false, "log per-task progress (durations, folds, epochs)")
	report := flag.String("report", "", "write a machine-readable JSON RunReport to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics over HTTP on this address (expvar /debug/vars, pprof /debug/pprof, JSON /metrics), e.g. localhost:6060")
	list := flag.Bool("list", false, "list available benchmarks and models")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	rec := perfpred.NewRecorder()
	hook := rec.Hook()
	if *verbose {
		hook = progress.New(os.Stderr, false, rec).Hook()
	}
	if *metricsAddr != "" {
		addr, _, err := perfpred.StartMetricsServer(*metricsAddr, rec.Registry())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics: http://%s/debug/vars\n", addr)
	}

	if *list {
		fmt.Println("benchmarks:", strings.Join(perfpred.Benchmarks(), ", "))
		var names []string
		for _, k := range perfpred.AllModels() {
			names = append(names, k.String())
		}
		fmt.Println("models:", strings.Join(names, ", "))
		fmt.Println("acquisition strategies:", strings.Join(perfpred.AcquireStrategies(), ", "))
		return
	}

	kinds, err := parseModels(*modelsArg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulating design space for %s...\n", *bench)
	start := time.Now()
	full, err := perfpred.SimulateDesignSpace(ctx, *bench, perfpred.SimOptions{
		TraceLen: *traceLen, Seed: *seed, Workers: *workers, Stride: *stride, Hook: hook,
	})
	if err != nil {
		log.Fatal(err)
	}
	simulated := time.Now()
	fmt.Printf("space: %d configurations; sampling %.1f%%\n", full.Len(), 100**frac)

	cfg := perfpred.TrainConfig{
		Seed: *seed, Workers: *workers, EpochScale: *epochs, Hook: hook,
	}
	var res *perfpred.SampledDSEResult
	var ares *perfpred.ActiveDSEResult
	if *activeRun {
		ares, err = perfpred.RunActiveDSE(ctx, full, *frac, kinds, cfg, perfpred.ActiveOptions{
			Rounds: *rounds, Batch: *batch, Acquire: *acquire,
		})
		if err != nil {
			log.Fatal(err)
		}
		res = &ares.SampledDSEResult
	} else {
		res, err = perfpred.RunSampledDSE(ctx, full, *frac, kinds, cfg)
		if err != nil {
			log.Fatal(err)
		}
	}
	finished := time.Now()

	if ares != nil {
		fmt.Printf("active: %s acquisition, %d initial + %d rounds\n",
			ares.Strategy, ares.InitialSize, len(ares.Rounds))
		atw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(atw, "round\tlabeled\tacquired\tcommittee error (true MAPE)")
		for _, r := range ares.Rounds {
			var parts []string
			for _, c := range r.Committee {
				parts = append(parts, fmt.Sprintf("%s %.2f%%", c.Name, c.MAPE))
			}
			fmt.Fprintf(atw, "%d\t%d\t+%d\t%s\n",
				r.Round, r.LabeledBefore, r.Acquired, strings.Join(parts, "  "))
		}
		if err := atw.Flush(); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "model\testimated(mean)\testimated(max)\ttrue error")
	for _, rep := range res.Reports {
		fmt.Fprintf(tw, "%v\t%.2f%%\t%.2f%%\t%.2f%%\n",
			rep.Kind, rep.Estimate.Mean, rep.Estimate.Max, rep.TrueMAPE)
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nselected (by estimate): %v — true error %.2f%% using %d simulated points of %d\n",
		res.Selected, res.SelectedTrueMAPE, res.SampleSize, full.Len())

	if *report != "" {
		meta := perfpred.ReportMeta{
			Command:    "dse",
			Target:     *bench,
			Seed:       *seed,
			Workers:    *workers,
			EpochScale: *epochs,
			SpaceSize:  full.Len(),
			WallClock: perfpred.WallClock{
				TotalSeconds:    finished.Sub(start).Seconds(),
				SimulateSeconds: simulated.Sub(start).Seconds(),
				ModelSeconds:    finished.Sub(simulated).Seconds(),
			},
		}
		var rep *perfpred.RunReport
		if ares != nil {
			rep = perfpred.BuildActiveDSEReport(ares, meta, rec)
		} else {
			rep = perfpred.BuildDSEReport(res, meta, rec)
		}
		if err := obs.WriteFile(*report, rep); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("report: %s\n", *report)
	}
}

func parseModels(s string) ([]perfpred.ModelKind, error) {
	if s == "all" {
		return perfpred.AllModels(), nil
	}
	var kinds []perfpred.ModelKind
	for _, part := range strings.Split(s, ",") {
		k, err := perfpred.ParseModelKind(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}
