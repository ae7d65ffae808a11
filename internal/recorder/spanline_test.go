package recorder

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
)

// randomSpan draws a span with every field either zero/empty or set, every
// phase, and args of mixed types, including strings json.Marshal escapes.
func randomSpan(rng *rand.Rand) Span {
	strs := []string{"", "host0.cpu", "merge", "read.cold", `q"uo\te`, "<a&b>", "tab\there", "é", "\u2028", "bad\xff"}
	pick := func() string { return strs[rng.Intn(len(strs))] }
	num := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return -rng.Int63n(1e6)
		default:
			return rng.Int63() >> uint(rng.Intn(63))
		}
	}
	sp := Span{
		T:     num(),
		DurNs: num(),
		Ph:    []string{"B", "E", "X", "i", "C", ""}[rng.Intn(6)],
		Group: pick(),
		Track: pick(),
		TID:   int32(num()),
		Name:  pick(),
		Cat:   pick(),
	}
	switch rng.Intn(3) {
	case 0: // no args
	case 1:
		sp.Args = []SpanArg{}
	default:
		vals := []any{nil, 4096, int32(-7), int64(1 << 40), uint32(9), uint64(math.MaxUint64),
			true, false, "asu3", "<x>", 1.5, float32(0.25), 0.0, []int{1, 2}, map[string]int{"b": 2, "a": 1}}
		for range 1 + rng.Intn(4) {
			sp.Args = append(sp.Args, SpanArg{Key: pick(), Val: vals[rng.Intn(len(vals))]})
		}
	}
	return sp
}

// TestAppendSpanLineMatchesMarshal pins the store's span encoder to the
// encoding/json line it replaced, byte for byte.
func TestAppendSpanLineMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	spans := []Span{{}, {Ph: "X"}, {Args: []SpanArg{{}}}}
	for range 5000 {
		spans = append(spans, randomSpan(rng))
	}
	var line []byte
	for _, sp := range spans {
		want, err := json.Marshal(Record{Span: &sp})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if line, err = appendSpanLine(line[:0], &sp); err != nil {
			t.Fatalf("%+v: %v", sp, err)
		}
		if !bytes.Equal(line, want) {
			t.Fatalf("span %+v:\n got  %s want %s", sp, line, want)
		}
	}
}

// TestStoreSpanArgErrorLatches: a span whose arg cannot be encoded latches
// the error in Store.Err and stops the segment there, as a failed write does.
func TestStoreSpanArgErrorLatches(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := st.NewRun()
	rec.Begin(testHeader("exp", "cell"))
	rec.Span(Span{T: 1, Ph: "i", Group: "g", Track: "t", TID: 1, Name: "ok"})
	rec.Span(Span{T: 2, Ph: "i", Group: "g", Track: "t", TID: 1, Name: "bad",
		Args: []SpanArg{{Key: "ratio", Val: math.NaN()}}})
	rec.Span(Span{T: 3, Ph: "i", Group: "g", Track: "t", TID: 1, Name: "after"})
	rec.Event(Event{T: 4, Kind: "after"})
	rec.Finish(testReport("cell"))
	if st.Err() == nil {
		t.Fatal("unencodable span arg not reported by Store.Err")
	}
	runs, err := st.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("store holds %d runs", len(runs))
	}
	b, err := os.ReadFile(runs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(b, []byte("\n")); n != 2 {
		t.Fatalf("segment has %d lines, want header and the first span:\n%s", n, b)
	}
	if sp := runs[0].Spans(); len(sp) != 1 || sp[0].Name != "ok" {
		t.Fatalf("stored spans = %+v", sp)
	}
}
