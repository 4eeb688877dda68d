package main

import (
	"fmt"
	"time"

	"perfpred/internal/core"
	"perfpred/internal/tree"
)

// workload is one benchmark input set. Every workload runs the paper's
// whole loop — explore a design space (simulate → sample → train →
// cross-validate → select), then serve the explored models over HTTP —
// and the workloads differ in which stage carries the weight, so each
// stresses different layers while every end-to-end metric is measured on
// every workload.
type workload struct {
	Name string
	Why  string

	// Explore stage.
	Bench      string  // trace profile
	TraceLen   int     // instructions per generated trace
	Stride     int     // simulate every Stride-th point (0/1 = all 4608)
	Frac       float64 // sampled share of the space
	Kinds      []core.ModelKind
	Active     bool // RunActiveDSE instead of RunSampledDSE
	Rounds     int  // active acquisition rounds
	EpochScale float64
	// ExploreShare is the share of --seconds the explore stage runs for.
	// The stage repeats DSE iterations, each on its own derived seed,
	// for its first (1 - SweepShare) and re-sweeps the last iteration's
	// space for the rest, so dse_wall_s and sim_points_per_s are medians
	// over many samples and a run's length does not depend on the host's
	// speed.
	ExploreShare float64
	SweepShare   float64
}

// Serving mix (all workloads): 90% single-row requests, half of them from
// a small hot pool of design points, half uniform over the space; 10%
// 64-row batches of uniform points. Requests cycle over the served models.
const (
	batchFrac  = 0.10
	hotFrac    = 0.5
	hotPool    = 16
	batchRows  = 64
	cacheSize  = 2048
	replicas   = 2
	scrapeTick = time.Second
	// serveRate is the offered load: light, well below the ~2000 req/s at
	// which the two connections saturate on a 2-vCPU machine, so the
	// latencies measure service rather than queueing in the generator.
	serveRate = 300.0
	warmup    = time.Second // unrecorded traffic before the measured step
	rigReps   = 41          // serving-rig start-ups timed per run (median reported)
	setupReps = 21          // trace+evaluator set-ups timed per run (median reported)
)

var (
	sampledKinds = []core.ModelKind{core.LRB, core.NNE, core.NNS}
	activeKinds  = []core.ModelKind{core.LRB, core.NNE, core.NNS, tree.KindTreeB}
	// kernelKinds are the kinds whose serving kernel a traced run times.
	kernelKinds = []core.ModelKind{core.LRB, core.NNE, tree.KindTreeB}
)

func workloads() []workload {
	return []workload{
		{
			Name:  "dse-sweep",
			Why:   "full 4608-point mcf sweep at 100k instructions: the simulator's mem and bpred passes are most of the work, model training is small",
			Bench: "mcf", TraceLen: 100_000, Frac: 0.02, Kinds: sampledKinds, EpochScale: 1,
			ExploreShare: 0.8, SweepShare: 0.3,
		},
		{
			Name:  "dse-active",
			Why:   "active-learning DSE on gcc at 20k instructions, 4 committee rounds, quarter epochs: training, CV, acquisition and prediction dominate, simulation is small",
			Bench: "gcc", TraceLen: 20_000, Frac: 0.02, Kinds: activeKinds, Active: true, Rounds: 4, EpochScale: 0.25,
			ExploreShare: 0.85, SweepShare: 0.1,
		},
	}
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// exploreBudget is the length of the explore stage.
func (w workload) exploreBudget(seconds float64) time.Duration {
	return time.Duration(w.ExploreShare * seconds * float64(time.Second))
}

// serveSeconds is the length of the serve stage's measured step.
func (w workload) serveSeconds(seconds float64) float64 {
	return (1 - w.ExploreShare) * seconds
}

// smoke shrinks a workload to a seconds-long configuration for tests: a
// strided space, short traces and cheap training.
func (w workload) smoke() workload {
	w.TraceLen = 4000
	w.Stride = 8
	w.Frac = 0.1
	w.EpochScale = 0.05
	w.Rounds = min(w.Rounds, 2)
	return w
}
