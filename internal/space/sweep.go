package space

import (
	"context"
	"errors"

	"perfpred/internal/cpu"
	"perfpred/internal/engine"
)

// sweepBatch is how many configurations one sweep task simulates; small
// enough to load-balance across heterogeneous configurations, large enough
// to amortize scheduling. It is also the length of Enumerate's innermost
// run of points sharing one (L1I, L1D, L2, L3) combination, so in a full
// sweep no two tasks need the same L2/L3 replay: with a smaller batch,
// neighbouring tasks would ask for it together and one worker would wait
// for the other to compute it.
const sweepBatch = 32

// Sweep simulates every configuration against the evaluator's trace as a
// chunked parallel map on the engine pool, using up to opts.Workers
// goroutines (0 means GOMAXPROCS), and returns the cycle count per
// configuration, index-aligned with cfgs. An opts.Hook observes the sweep's
// task events ("sweep[lo:hi)" labels) alongside any model-training events
// sharing the hook. The result is deterministic regardless of worker
// count: the evaluator memoizes substrate passes and the pipeline combine
// step is pure. Cancelling ctx aborts the sweep between configurations.
func Sweep(ctx context.Context, eval *cpu.Evaluator, cfgs []MicroConfig, opts engine.Options) ([]float64, error) {
	if eval == nil {
		return nil, errors.New("space: nil evaluator")
	}
	if len(cfgs) == 0 {
		return nil, errors.New("space: no configurations to sweep")
	}
	cycles := make([]float64, len(cfgs))
	err := engine.Map(ctx, opts, len(cfgs), sweepBatch, "sweep",
		func(ctx context.Context, lo, hi int) error {
			for i := lo; i < hi; i++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				res, err := eval.Simulate(cfgs[i].CPUConfig())
				if err != nil {
					return err
				}
				cycles[i] = res.Cycles
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return cycles, nil
}
