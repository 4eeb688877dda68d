package loadtest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"time"

	"perfpred/internal/core"
	"perfpred/internal/engine"
	"perfpred/internal/gateway"
	"perfpred/internal/serve"
)

const (
	// epilogueModel is the model the epilogue retrains. The neural
	// family is seed-sensitive, so a different seed (and different
	// training data) provably moves its predictions.
	epilogueModel = "nns"
	// epilogueAttempts bounds every retried step: faults stay armed
	// through the epilogue, so probes, artifact loads and reloads all
	// need a retry budget that outlasts the fault cadences.
	epilogueAttempts = 40
	epilogueBackoff  = 5 * time.Millisecond
)

// EpilogueStats records the generation-boundary epilogue of a
// cache-armed run, with the counts the run-wide invariants need to stay
// balanced (epilogue reload successes advance the registry generation;
// epilogue 429s explain shed-counter movement after the schedule).
type EpilogueStats struct {
	Probes         int `json:"probes"`
	Observed429s   int `json:"observed_429s"`
	ReloadAttempts int `json:"reload_attempts"`
	ReloadsOK      int `json:"reloads_ok"`
}

// runEpilogue drives the generation-boundary proof of a cache-armed
// run. The schedule has drained but the daemon — and any armed fault
// injector — is still live:
//
//  1. probe the schedule's hot rows and bit-compare against the old
//     goldens (the cache is warm, so these are near-certain hits);
//  2. retrain one model on different data, overwrite its artifact in
//     place, and reload until an attempt lands;
//  3. probe the same hot rows again and bit-compare against goldens
//     scored from the NEW artifact. A cache hit crossing the generation
//     boundary would serve the old model's bits and fail here.
//
// Violations land in h.epiViolations and are folded into the report.
func (h *harness) runEpilogue() {
	epi := &EpilogueStats{}
	h.epi = epi
	hot := hotPoolSize
	if hot > len(h.fx.rows) {
		hot = len(h.fx.rows)
	}

	oldGolden := h.fx.golden[epilogueModel]
	for idx := 0; idx < hot; idx++ {
		got, ok := h.epilogueRequest(epi, idx)
		if !ok {
			h.epiViolations = append(h.epiViolations,
				fmt.Sprintf("epilogue pre-reload: hot row %d never answered 200 in %d attempts", idx, epilogueAttempts))
			continue
		}
		epi.Probes++
		if got != oldGolden[idx] {
			h.epiViolations = append(h.epiViolations,
				fmt.Sprintf("epilogue pre-reload: hot row %d predicted %v, offline golden %v", idx, got, oldGolden[idx]))
		}
	}

	// Retrain on a different dataset and seed so even a deterministic
	// trainer would produce a different artifact, and swap it in place.
	train, err := synthDataset(128, h.cfg.Seed+777)
	if err != nil {
		h.epiViolations = append(h.epiViolations, fmt.Sprintf("epilogue: retrain dataset: %v", err))
		return
	}
	p, err := core.Train(context.Background(), fixtureModels()[epilogueModel], train,
		core.TrainConfig{Seed: h.cfg.Seed + 77, Workers: 2, EpochScale: 0.2})
	if err != nil {
		h.epiViolations = append(h.epiViolations, fmt.Sprintf("epilogue: retraining %s: %v", epilogueModel, err))
		return
	}
	path := filepath.Join(h.fx.dir, epilogueModel+".json")
	if err := savePredictor(path, p); err != nil {
		h.epiViolations = append(h.epiViolations, fmt.Sprintf("epilogue: saving retrained artifact: %v", err))
		return
	}

	// Score the new goldens from the artifact actually on disk. The
	// artifact-load fault point fires on this path too, so retry.
	var newGolden []float64
	wctx := engine.NewWorkerContext(context.Background())
	for try := 0; try < epilogueAttempts && newGolden == nil; try++ {
		loaded, err := core.LoadPredictorFile(path)
		if err != nil {
			time.Sleep(epilogueBackoff)
			continue
		}
		out := make([]float64, hot)
		if err := loaded.PredictRowsInto(wctx, out, h.fx.rows[:hot]); err != nil {
			h.epiViolations = append(h.epiViolations, fmt.Sprintf("epilogue: scoring new goldens: %v", err))
			return
		}
		newGolden = out
	}
	if newGolden == nil {
		h.epiViolations = append(h.epiViolations,
			fmt.Sprintf("epilogue: retrained artifact never loaded in %d attempts", epilogueAttempts))
		return
	}
	moved := false
	for i := range newGolden {
		if newGolden[i] != oldGolden[i] {
			moved = true
			break
		}
	}
	if !moved {
		h.epiViolations = append(h.epiViolations,
			"epilogue has no teeth: retrained artifact predicts identically on every hot row")
		return
	}

	// Reload until one attempt lands — the reload fault rejects every
	// third attempt and artifact faults can tear others.
	reloaded := false
	for try := 0; try < epilogueAttempts && !reloaded; try++ {
		epi.ReloadAttempts++
		if _, err := h.rig.reps[0].srv.Reload(); err == nil {
			epi.ReloadsOK++
			h.rig.noteReload([]gateway.ReloadResult{{Addr: h.rig.addrs[0]}})
			reloaded = true
			break
		}
		time.Sleep(epilogueBackoff)
	}
	if !reloaded {
		h.epiViolations = append(h.epiViolations,
			fmt.Sprintf("epilogue: no reload succeeded in %d attempts", epilogueAttempts))
		return
	}

	for idx := 0; idx < hot; idx++ {
		got, ok := h.epilogueRequest(epi, idx)
		if !ok {
			h.epiViolations = append(h.epiViolations,
				fmt.Sprintf("epilogue post-reload: hot row %d never answered 200 in %d attempts", idx, epilogueAttempts))
			continue
		}
		epi.Probes++
		if got == newGolden[idx] {
			continue
		}
		if got == oldGolden[idx] {
			h.epiViolations = append(h.epiViolations,
				fmt.Sprintf("cache hit crossed the generation boundary: hot row %d served the pre-reload model's bits (%v) after a successful reload", idx, got))
		} else {
			h.epiViolations = append(h.epiViolations,
				fmt.Sprintf("epilogue post-reload: hot row %d predicted %v, new-artifact golden %v", idx, got, newGolden[idx]))
		}
	}
}

// epilogueRequest posts one hot row until it draws a 200 (faults are
// still armed, so shed / stalled / injected-error outcomes retry within
// the attempt budget) and returns its single prediction.
func (h *harness) epilogueRequest(epi *EpilogueStats, idx int) (float64, bool) {
	body, err := json.Marshal(&serve.PredictRequest{
		Model: epilogueModel,
		Row:   wireRow(h.schema, h.fx.rows[idx]),
	})
	if err != nil {
		return 0, false
	}
	for try := 0; try < epilogueAttempts; try++ {
		resp, err := h.client.Post(h.rig.baseURL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			time.Sleep(epilogueBackoff)
			continue
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			epi.Observed429s++
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			time.Sleep(epilogueBackoff)
			continue
		}
		var pr serve.PredictResponse
		err = json.NewDecoder(resp.Body).Decode(&pr)
		resp.Body.Close()
		if err != nil || len(pr.Predictions) != 1 {
			time.Sleep(epilogueBackoff)
			continue
		}
		return pr.Predictions[0], true
	}
	return 0, false
}
