package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// TestPredictorSaveLoadRoundTrip covers every registered kind — any
// family added to the registry is automatically held to the same
// bit-identical persistence contract.
func TestPredictorSaveLoadRoundTrip(t *testing.T) {
	train := synthSpace(t, 150, 21)
	probeRows := synthSpace(t, 20, 22)
	for _, kind := range AllModels() {
		p, err := Train(context.Background(), kind, train, quickCfg())
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatalf("%v: save: %v", kind, err)
		}
		back, err := LoadPredictor(&buf)
		if err != nil {
			t.Fatalf("%v: load: %v", kind, err)
		}
		if back.Kind() != kind {
			t.Fatalf("%v: kind became %v", kind, back.Kind())
		}
		for i := 0; i < probeRows.Len(); i++ {
			want, err := p.Predict(probeRows.Row(i))
			if err != nil {
				t.Fatal(err)
			}
			got, err := back.Predict(probeRows.Row(i))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%v: loaded model predicts %v, original %v", kind, got, want)
			}
		}
	}
}

func TestPredictorLoadRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalPredictor([]byte("not json")); err == nil {
		t.Fatal("garbage: want error")
	}
	if _, err := UnmarshalPredictor([]byte(`{"version":99}`)); err == nil {
		t.Fatal("bad version: want error")
	}
	if _, err := UnmarshalPredictor([]byte(`{"version":1,"kind":0,"encoder":{"version":1}}`)); err == nil {
		t.Fatal("empty encoder: want error")
	}
}

func TestPredictorLoadRejectsPayloadMismatch(t *testing.T) {
	train := synthSpace(t, 80, 23)
	p, err := Train(context.Background(), LRE, train, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]json.RawMessage
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	mutate := func(change func(m map[string]json.RawMessage)) []byte {
		m := make(map[string]json.RawMessage, len(st))
		for k, v := range st {
			m[k] = v
		}
		change(m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// Claim the linreg payload belongs to a neural kind: the family tag
	// no longer matches the kind's registered family.
	bad := mutate(func(m map[string]json.RawMessage) { m["kind"] = json.RawMessage("9") }) // NNS
	if _, err := UnmarshalPredictor(bad); err == nil {
		t.Fatal("kind/family mismatch: want error")
	}
	// Strip the payload entirely.
	empty := mutate(func(m map[string]json.RawMessage) { delete(m, "model") })
	if _, err := UnmarshalPredictor(empty); err == nil {
		t.Fatal("missing payload: want error")
	}
	// A v2 artifact smuggling a legacy slot next to its payload is
	// ambiguous and rejected.
	both := mutate(func(m map[string]json.RawMessage) { m["lr"] = m["model"] })
	if _, err := UnmarshalPredictor(both); err == nil {
		t.Fatal("v2 artifact with legacy slot: want error")
	}
}

func TestLoadedPredictorImportancesWork(t *testing.T) {
	train := synthSpace(t, 200, 24)
	p, err := Train(context.Background(), NNQ, train, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	imps, err := back.Importances(train)
	if err != nil {
		t.Fatal(err)
	}
	if len(imps) == 0 {
		t.Fatal("no importances from a loaded model")
	}
}

// TestPredictorDecodeErrorStrings pins the exact error message each
// malformed artifact shape decodes to. Version-1 artifacts (payload in
// an "lr"/"nn" slot, no family tag) are no longer decoded: every legacy
// shape must fail. These
// strings are part of the operational surface — registry reload
// failures and predict-CLI errors quote them verbatim — so changing one
// is a breaking change this table makes deliberate.
func TestPredictorDecodeErrorStrings(t *testing.T) {
	train := synthSpace(t, 80, 27)
	p, err := Train(context.Background(), LRE, train, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var base map[string]json.RawMessage
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	artifact := func(change func(m map[string]json.RawMessage)) []byte {
		m := make(map[string]json.RawMessage, len(base))
		for k, v := range base {
			m[k] = v
		}
		change(m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// toV1 rewrites the v2 artifact as version 1 with the payload in
	// slot (or in no slot when slot is empty).
	toV1 := func(m map[string]json.RawMessage, slots ...string) {
		m["version"] = json.RawMessage("1")
		for _, s := range slots {
			m[s] = m["model"]
		}
		delete(m, "model")
		delete(m, "family")
	}

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{
			"v1 with both legacy slots",
			artifact(func(m map[string]json.RawMessage) { toV1(m, "lr", "nn") }),
			`core: decoding predictor: json: unknown field "lr"`,
		},
		{
			"v1 neural kind with LR slot",
			artifact(func(m map[string]json.RawMessage) {
				toV1(m, "lr")
				m["kind"] = json.RawMessage("9") // NNS
			}),
			`core: decoding predictor: json: unknown field "lr"`,
		},
		{
			"v1 linreg kind with NN slot",
			artifact(func(m map[string]json.RawMessage) { toV1(m, "nn") }),
			`core: decoding predictor: json: unknown field "nn"`,
		},
		{
			"v1 with neither slot",
			artifact(func(m map[string]json.RawMessage) { toV1(m) }),
			"core: unsupported predictor version 1",
		},
		{
			"v2 smuggling a legacy slot",
			artifact(func(m map[string]json.RawMessage) { m["lr"] = m["model"] }),
			`core: decoding predictor: json: unknown field "lr"`,
		},
		{
			"v2 without a payload",
			artifact(func(m map[string]json.RawMessage) { delete(m, "model") }),
			"core: predictor has no model payload",
		},
		{
			"v2 family/kind mismatch",
			artifact(func(m map[string]json.RawMessage) { m["kind"] = json.RawMessage("9") }), // NNS
			`core: predictor family "linreg/v1" does not match NN-S (family "neural/v1")`,
		},
		{
			"v2 with trailing data",
			append(artifact(func(map[string]json.RawMessage) {}), " {}"...),
			"core: decoding predictor: trailing data after the artifact",
		},
		{
			"unsupported version",
			artifact(func(m map[string]json.RawMessage) { m["version"] = json.RawMessage("3") }),
			"core: unsupported predictor version 3",
		},
		{
			"unknown kind",
			artifact(func(m map[string]json.RawMessage) { m["kind"] = json.RawMessage("99") }),
			"core: predictor has unknown model kind ModelKind(99)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := UnmarshalPredictor(tc.data)
			if err == nil {
				t.Fatal("malformed artifact decoded without error")
			}
			if err.Error() != tc.want {
				t.Errorf("error = %q\nwant    %q", err.Error(), tc.want)
			}
		})
	}
}
