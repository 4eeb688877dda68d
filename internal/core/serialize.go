package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"perfpred/internal/dataset"
	"perfpred/internal/faultinject"
	"perfpred/internal/model"
)

// predictorState is the artifact wire format: one opaque model payload
// plus the versioned family tag that identifies its codec. Decoding is
// strict: a field this struct does not name (such as the retired
// version-1 "lr"/"nn" payload slots) fails the artifact.
type predictorState struct {
	Version int             `json:"version"`
	Kind    ModelKind       `json:"kind"`
	Family  string          `json:"family,omitempty"`
	Encoder json.RawMessage `json:"encoder"`
	Model   json.RawMessage `json:"model,omitempty"`
}

const predictorVersion = 2

// MarshalJSON serializes the trained predictor — model payload, family
// tag, and the fitted input encoder — so a surrogate can be stored and
// reused without retraining.
func (p *Predictor) MarshalJSON() ([]byte, error) {
	enc, err := json.Marshal(p.enc)
	if err != nil {
		return nil, err
	}
	payload, err := p.model.Marshal()
	if err != nil {
		return nil, err
	}
	return json.Marshal(predictorState{
		Version: predictorVersion,
		Kind:    p.kind,
		Family:  p.fam.Tag,
		Encoder: enc,
		Model:   payload,
	})
}

// UnmarshalPredictor restores a predictor serialized by MarshalJSON. It
// rejects other versions, unknown fields, a missing payload and a family
// tag that contradicts the declared kind.
func UnmarshalPredictor(data []byte) (*Predictor, error) {
	var st predictorState
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&st)
	if _, terr := dec.Token(); err == nil && terr != io.EOF {
		err = errors.New("trailing data after the artifact")
	}
	if err != nil {
		return nil, fmt.Errorf("core: decoding predictor: %w", err)
	}
	fam, ok := model.Lookup(st.Kind)
	if !ok {
		return nil, fmt.Errorf("core: predictor has unknown model kind %v", st.Kind)
	}
	if st.Version != predictorVersion {
		return nil, fmt.Errorf("core: unsupported predictor version %d", st.Version)
	}
	if st.Model == nil {
		return nil, fmt.Errorf("core: predictor has no model payload")
	}
	if st.Family != fam.Tag {
		return nil, fmt.Errorf("core: predictor family %q does not match %v (family %q)", st.Family, st.Kind, fam.Tag)
	}
	enc, err := dataset.UnmarshalEncoder(st.Encoder)
	if err != nil {
		return nil, err
	}
	m, err := fam.Unmarshal(st.Model)
	if err != nil {
		return nil, err
	}
	return &Predictor{kind: st.Kind, fam: fam, enc: enc, model: m}, nil
}

// Save writes the predictor to w as JSON.
func (p *Predictor) Save(w io.Writer) error {
	data, err := json.Marshal(p)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// LoadPredictor reads a predictor previously written with Save.
func LoadPredictor(r io.Reader) (*Predictor, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return UnmarshalPredictor(data)
}

// LoadPredictorFile reads and validates a predictor from a JSON file —
// the registry-facing loader shared by the serving daemon and the
// predict CLI, so both reject the same malformed artifacts. An
// artifact-load fault-injection point sits in front of the read, so
// chaos runs can make any artifact transiently unreadable and prove
// that a reloading registry keeps its previous catalog.
func LoadPredictorFile(path string) (*Predictor, error) {
	if _, ferr := faultinject.Active().Hit(context.Background(), faultinject.CoreArtifactLoad); ferr != nil {
		return nil, fmt.Errorf("core: loading predictor %s: %w", path, ferr)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: loading predictor: %w", err)
	}
	defer f.Close()
	p, err := LoadPredictor(f)
	if err != nil {
		return nil, fmt.Errorf("core: loading predictor %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: loading predictor %s: %w", path, err)
	}
	return p, nil
}

// Validate cross-checks the predictor's model payload against its fitted
// encoder: the model's expected input width must match the encoder's
// column count. Deserialization already guarantees kind/family/payload
// consistency; this catches artifacts assembled from mismatched parts
// (e.g. a hand-edited file pairing one run's weights with another run's
// encoder).
func (p *Predictor) Validate() error {
	if p.enc == nil {
		return fmt.Errorf("core: predictor has no encoder")
	}
	width := p.enc.NumColumns()
	if width == 0 {
		return fmt.Errorf("core: predictor encoder has no input columns")
	}
	if p.model == nil {
		return fmt.Errorf("core: predictor has no model payload")
	}
	if got := p.model.NumInputs(); got != width {
		return fmt.Errorf("core: predictor %v expects %d inputs but its encoder produces %d columns", p.kind, got, width)
	}
	return nil
}
