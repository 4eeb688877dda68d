package obs

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleReport() *RunReport {
	return &RunReport{
		Version:    ReportVersion,
		Command:    "dse",
		Target:     "mcf",
		Seed:       1,
		Workers:    8,
		EpochScale: 1,
		Fraction:   0.01,
		SampleSize: 46,
		SpaceSize:  4608,
		Models: []ModelResult{
			{Kind: "LR-B", EstimateMean: 21.1, EstimateMax: 22.7, EstimatePerFold: []float64{20, 21, 22, 21.8, 22.7}, TrueMAPE: 20.3, StdAPE: 14.0},
			{Kind: "NN-Q", EstimateMean: 7.3, EstimateMax: 8.7, TrueMAPE: 8.4, StdAPE: 9.0},
		},
		Selected:         "NN-Q",
		SelectedTrueMAPE: 8.4,
		WallClock:        WallClock{TotalSeconds: 12.5, SimulateSeconds: 9.25, ModelSeconds: 3.25},
	}
}

func TestReportRoundTripFile(t *testing.T) {
	rep := sampleReport()
	path := filepath.Join(t.TempDir(), "report.json")
	if err := WriteFile(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile[RunReport](path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, got) {
		t.Errorf("round trip mismatch:\nwrote %+v\nread  %+v", rep, got)
	}
}

func TestReportValidate(t *testing.T) {
	if err := sampleReport().Validate(); err != nil {
		t.Errorf("valid report rejected: %v", err)
	}
	bad := sampleReport()
	bad.Version = 99
	if err := bad.Validate(); err == nil {
		t.Error("version 99 accepted")
	}
	bad = sampleReport()
	bad.Command = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty command accepted")
	}
	bad = sampleReport()
	bad.Models[0].Kind = ""
	if err := bad.Validate(); err == nil {
		t.Error("unnamed model accepted")
	}
	bad = sampleReport()
	bad.Models[1].TrueMAPE = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Error("NaN error accepted")
	}
	bad = sampleReport()
	bad.WallClock.TotalSeconds = math.Inf(1)
	if err := bad.Validate(); err == nil {
		t.Error("Inf wall clock accepted")
	}
	var nilRep *RunReport
	if err := nilRep.Validate(); err == nil {
		t.Error("nil report accepted")
	}
}

func TestReadReportRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "not json", `{"version":2,"command":"dse"}`, `{"version":1}`} {
		if _, err := ReadJSON[RunReport](strings.NewReader(s)); err == nil {
			t.Errorf("ReadJSON[RunReport](%q) accepted", s)
		}
	}
}

func TestFindModel(t *testing.T) {
	rep := sampleReport()
	if m := rep.FindModel("NN-Q"); m == nil || m.TrueMAPE != 8.4 {
		t.Errorf("FindModel(NN-Q) = %+v", m)
	}
	if m := rep.FindModel("NN-E"); m != nil {
		t.Errorf("FindModel(NN-E) = %+v, want nil", m)
	}
}

func TestWriteJSONIsIndented(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, sampleReport()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\n  \"command\": \"dse\"") {
		t.Errorf("report JSON not indented:\n%s", buf.String())
	}
}

func sampleActive() *ActiveStats {
	return &ActiveStats{
		Strategy:    "committee",
		InitialSize: 45,
		FinalSize:   90,
		PoolSize:    810,
		Rounds: []ActiveRound{
			{
				Round: 1, LabeledBefore: 45, PoolBefore: 855, Acquired: 15,
				TrainSeconds: 0.5, AcquireSeconds: 0.1,
				Committee: []CommitteeError{{Kind: "NN-Q", TrueMAPE: 8.6}, {Kind: "LR-B", TrueMAPE: 19.6}},
			},
			{
				Round: 2, LabeledBefore: 60, PoolBefore: 840, Acquired: 15,
				TrainSeconds: 0.6, AcquireSeconds: 0.1,
				Committee: []CommitteeError{{Kind: "NN-Q", TrueMAPE: 6.5}, {Kind: "LR-B", TrueMAPE: 19.4}},
			},
		},
	}
}

func TestActiveReportRoundTrip(t *testing.T) {
	rep := sampleReport()
	rep.Active = sampleActive()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON[RunReport](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, got) {
		t.Errorf("active round trip mismatch:\nwrote %+v\nread  %+v", rep.Active, got.Active)
	}
	// The section is omitempty: a sampled run's JSON must not mention it.
	buf.Reset()
	if err := WriteJSON(&buf, sampleReport()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"active"`) {
		t.Error("sampled-DSE report serialized an active section")
	}
}

func TestActiveStatsValidate(t *testing.T) {
	if err := sampleActive().Validate(); err != nil {
		t.Errorf("valid active stats rejected: %v", err)
	}
	cases := map[string]func(*ActiveStats){
		"no strategy":     func(a *ActiveStats) { a.Strategy = "" },
		"negative size":   func(a *ActiveStats) { a.InitialSize = -1 },
		"shrinking run":   func(a *ActiveStats) { a.FinalSize = a.InitialSize - 1 },
		"negative pool":   func(a *ActiveStats) { a.PoolSize = -1 },
		"NaN timing":      func(a *ActiveStats) { a.Rounds[0].TrainSeconds = math.NaN() },
		"Inf timing":      func(a *ActiveStats) { a.Rounds[1].AcquireSeconds = math.Inf(1) },
		"anonymous kind":  func(a *ActiveStats) { a.Rounds[0].Committee[0].Kind = "" },
		"non-finite MAPE": func(a *ActiveStats) { a.Rounds[1].Committee[1].TrueMAPE = math.NaN() },
	}
	for name, mutate := range cases {
		a := sampleActive()
		mutate(a)
		if a.Validate() == nil {
			t.Errorf("%s: Validate accepted", name)
		}
		rep := sampleReport()
		rep.Active = a
		if rep.Validate() == nil {
			t.Errorf("%s: RunReport.Validate accepted the bad active section", name)
		}
	}
}
