package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Validator is a report that checks its own structural invariants.
// RunReport, ServeReport and GatewayReport all are; the codec below is
// the one JSON reader and writer they share.
type Validator interface {
	Validate() error
}

// WriteJSON validates v and writes it as indented JSON, so no invalid
// report ever reaches disk or the wire.
func WriteJSON(w io.Writer, v Validator) error {
	if err := v.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WriteFile validates v and writes it to path as indented JSON.
func WriteFile(path string, v Validator) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: writing report: %w", err)
	}
	if err := WriteJSON(f, v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadJSON decodes one report of type T and validates it; garbage and
// unsupported versions are rejected.
func ReadJSON[T any, P interface {
	*T
	Validator
}](r io.Reader) (*T, error) {
	var rep T
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("obs: decoding report: %w", err)
	}
	if err := P(&rep).Validate(); err != nil {
		return nil, err
	}
	return &rep, nil
}

// ReadFile reads and validates one report of type T from a JSON file.
func ReadFile[T any, P interface {
	*T
	Validator
}](path string) (*T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("obs: reading report: %w", err)
	}
	defer f.Close()
	return ReadJSON[T, P](f)
}
