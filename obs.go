package perfpred

import (
	"io"
	"net"

	"perfpred/internal/core"
	"perfpred/internal/engine"
	"perfpred/internal/obs"
)

// Recorder aggregates execution-engine events into metrics and per-model
// statistics. Attach Recorder.Hook() to TrainConfig.Hook / SimOptions.Hook
// (tee it with TeeHooks to combine with a progress renderer) and build a
// RunReport from it when the run finishes.
type Recorder = obs.Recorder

// NewRecorder returns a recorder stamped with the current time.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// TeeHooks fans one event stream out to several hooks; nil hooks are
// skipped.
func TeeHooks(hooks ...Hook) Hook { return engine.Tee(hooks...) }

// RunReport is the machine-readable record of one experiment run:
// per-model errors in full precision, the selection decision, seeds,
// worker count and a wall-clock/execution breakdown.
type RunReport = obs.RunReport

// ModelResult is one model's scored outcome inside a RunReport.
type ModelResult = obs.ModelResult

// WallClock is a RunReport's coarse wall-clock breakdown (seconds).
type WallClock = obs.WallClock

// ReportMeta identifies a run (command, target, seed, workers) for its
// RunReport.
type ReportMeta = core.ReportMeta

// BuildDSEReport assembles the RunReport of a sampled design-space
// exploration run; rec may be nil.
func BuildDSEReport(res *SampledDSEResult, meta ReportMeta, rec *Recorder) *RunReport {
	return core.BuildDSEReport(res, meta, rec)
}

// BuildActiveDSEReport assembles the RunReport of an active-learning
// design-space exploration run — the sampled-DSE sections plus the
// acquisition trajectory; rec may be nil.
func BuildActiveDSEReport(res *ActiveDSEResult, meta ReportMeta, rec *Recorder) *RunReport {
	return core.BuildActiveDSEReport(res, meta, rec)
}

// BuildChronoReport assembles the RunReport of a chronological prediction
// run; rec may be nil.
func BuildChronoReport(res *ChronoResult, trainSize, futureSize int, meta ReportMeta, rec *Recorder) *RunReport {
	return core.BuildChronoReport(res, trainSize, futureSize, meta, rec)
}

// ReadRunReport parses and validates a RunReport.
func ReadRunReport(r io.Reader) (*RunReport, error) { return obs.ReadJSON[obs.RunReport](r) }

// ReadRunReportFile reads a RunReport from a JSON file.
func ReadRunReportFile(path string) (*RunReport, error) { return obs.ReadFile[obs.RunReport](path) }

// MetricsRegistry is a named collection of counters, gauges and timing
// histograms.
type MetricsRegistry = obs.Registry

// StartMetricsServer serves a recorder's registry over HTTP: expvar on
// /debug/vars, pprof on /debug/pprof/, compact JSON on /metrics. It
// returns the bound address (useful with ":0") and a shutdown func.
func StartMetricsServer(addr string, reg *MetricsRegistry) (net.Addr, func() error, error) {
	return obs.StartMetricsServer(addr, reg)
}
