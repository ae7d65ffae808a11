package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"lmas/internal/dsmsort"
	"lmas/internal/recorder"
	"lmas/internal/sim"
	"lmas/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// observerGolden fingerprints every byte the observers of one run write: the
// trace sink's Chrome JSON and CSV exports, the run-store segment below its
// header line (the header carries the run ID and wall-clock start), and the
// Chrome JSON that ComposeTrace rebuilds from that segment.
type observerGolden struct {
	Events        int    `json:"events"`
	TraceJSON     string `json:"trace_json_sha256"`
	TraceCSV      string `json:"trace_csv_sha256"`
	SegmentBody   string `json:"segment_body_sha256"`
	ComposedTrace string `json:"composed_trace_sha256"`
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestObserverOutputGolden pins the observer outputs of a small traced,
// recorded and critpath-profiled DSM-Sort byte for byte, so the encoders
// behind them can be rewritten without moving a byte. Refresh (only for an
// intended change to what is observed) with
// `go test ./internal/experiments -run TestObserverOutputGolden -update`.
func TestObserverOutputGolden(t *testing.T) {
	dir := t.TempDir()
	st, err := recorder.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sink := trace.New()
	spec := SortRunSpec{
		Name:          "observed",
		N:             4096,
		Hosts:         2,
		ASUs:          8,
		C:             8,
		Alpha:         8,
		Beta:          256,
		Gamma2:        4,
		PacketRecords: 64,
		Placement:     dsmsort.Active,
		Policy:        "static",
		Dist:          "uniform",
		Seed:          7,
		Critpath:      true,
		Record:        st,
		Trace:         sink,
		Experiment:    "golden",
		SampleEvery:   2 * sim.Millisecond,
		GaugeInterval: 10 * sim.Millisecond,
	}
	if _, _, err := RunSortReport(spec); err != nil {
		t.Fatal(err)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}

	var js, csv, composed bytes.Buffer
	if err := sink.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	runs, err := st.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("store holds %d runs, want 1", len(runs))
	}
	seg, err := os.ReadFile(runs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(seg, '\n')
	if nl < 0 {
		t.Fatal("segment has no header line")
	}
	if err := recorder.ComposeTrace(&composed, runs); err != nil {
		t.Fatal(err)
	}
	if len(runs[0].Spans()) != sink.Events() {
		t.Fatalf("segment holds %d spans, sink %d events", len(runs[0].Spans()), sink.Events())
	}

	got := observerGolden{
		Events:        sink.Events(),
		TraceJSON:     sha256Hex(js.Bytes()),
		TraceCSV:      sha256Hex(csv.Bytes()),
		SegmentBody:   sha256Hex(seg[nl+1:]),
		ComposedTrace: sha256Hex(composed.Bytes()),
	}
	path := filepath.Join("testdata", "observer_golden.json")
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	var want observerGolden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("observer outputs moved:\n got  %+v\n want %+v", got, want)
	}
}
