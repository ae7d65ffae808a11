package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// marshalEqual checks that got/gotErr is what json.Marshal(v) gives, appended
// to prefix: the same bytes on success, an error on failure.
func marshalEqual(t *testing.T, what string, prefix, got []byte, gotErr error, v any) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s(%#v): err %v, json.Marshal err %v", what, v, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%s(%#v) = %q, json.Marshal = %q", what, v, got[len(prefix):], want)
	}
}

// FuzzObserverJSON checks the reflection-free appenders against the
// encoders they replace: AppendString and AppendValue against json.Marshal
// for every switched type and for the float fallback (NaN and ±Inf must
// still fail), and AppendUsec against strconv.FormatFloat.
func FuzzObserverJSON(f *testing.F) {
	f.Add("host0.cpu", int64(0), uint64(0), 0.0, false)
	f.Add("read.cold", int64(999), uint64(1<<63), 1.5, true)
	f.Add(`a<b>&c"d\e`, int64(1000), uint64(math.MaxUint32), math.NaN(), false)
	f.Add("\x00\x01\x1f\x7f tab\tnl\n", int64(1e15-1), uint64(1), math.Inf(1), true)
	f.Add("line para ", int64(1e15), uint64(42), math.Inf(-1), false)
	f.Add("bad\xff\xfeutf8\xc3", int64(-1), uint64(7), -0.0, true)
	f.Add("é日本語", int64(math.MaxInt64), uint64(math.MaxUint64), 1e21, false)
	f.Add("", int64(math.MinInt64), uint64(3), 5e-324, true)
	f.Fuzz(func(t *testing.T, s string, i int64, u uint64, fl float64, b bool) {
		prefix := []byte(`{"k":`)
		grow := func() []byte { return append([]byte(nil), prefix...) }

		marshalEqual(t, "AppendString", prefix, AppendString(grow(), s), nil, s)
		for _, v := range []any{s, int(i), int32(i), i, uint32(u), u, b, fl, float32(fl), nil, []string{s}} {
			got, err := AppendValue(grow(), v)
			marshalEqual(t, "AppendValue", prefix, got, err, v)
		}

		want := strconv.FormatFloat(float64(i)/1e3, 'f', 3, 64)
		if got := AppendUsec(grow(), i); string(got[len(prefix):]) != want {
			t.Fatalf("AppendUsec(%d) = %q, FormatFloat = %q", i, got[len(prefix):], want)
		}
	})
}

// TestAppendUsecMatchesFormatFloat pins AppendUsec to the FormatFloat
// rendering it replaced, at the edges of its integer path and on random
// stamps of every magnitude.
func TestAppendUsecMatchesFormatFloat(t *testing.T) {
	ns := []int64{0, 1, 999, 1000, 1001, 123456789, 1e15 - 1, 1e15, 1e15 + 1, -1, -999, -1000,
		math.MaxInt64, math.MinInt64, 1 << 53, 1<<53 + 1}
	rng := rand.New(rand.NewSource(1))
	for range 2000 {
		ns = append(ns, rng.Int63n(1e15), rng.Int63()>>uint(rng.Intn(63)), -rng.Int63n(1e12))
	}
	for _, v := range ns {
		want := strconv.FormatFloat(float64(v)/1e3, 'f', 3, 64)
		if got := string(AppendUsec(nil, v)); got != want {
			t.Fatalf("AppendUsec(%d) = %q, FormatFloat = %q", v, got, want)
		}
	}
}

// TestWriteJSONArgError: an arg encoding/json cannot encode fails the
// export with an error naming its key.
func TestWriteJSONArgError(t *testing.T) {
	for _, tc := range []struct {
		key string
		val any
	}{
		{"ratio", math.NaN()},
		{"inbox", make(chan int)},
	} {
		s := New()
		tr := s.NewTrack("g", "n")
		s.Instant(tr, 10, "ok", "c", Arg{Key: "n", Val: 1})
		s.Instant(tr, 20, "bad", "c", Arg{Key: "n", Val: 2}, Arg{Key: tc.key, Val: tc.val})
		err := s.WriteJSON(&bytes.Buffer{})
		if err == nil {
			t.Fatalf("%s: WriteJSON accepted %#v", tc.key, tc.val)
		}
		if !strings.Contains(err.Error(), strconv.Quote(tc.key)) {
			t.Fatalf("error %q does not name key %q", err, tc.key)
		}
		var ute *json.UnsupportedTypeError
		var uve *json.UnsupportedValueError
		if !errors.As(err, &ute) && !errors.As(err, &uve) {
			t.Fatalf("error %q does not wrap encoding/json's", err)
		}
	}
}

// errWriter fails every write after the first ok bytes.
type errWriter struct{ ok int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.ok < len(p) {
		return 0, errors.New("disk full")
	}
	w.ok -= len(p)
	return len(p), nil
}

// TestWriteJSONWriteError: a failing writer's error reaches the caller.
func TestWriteJSONWriteError(t *testing.T) {
	s := New()
	tr := s.NewTrack("g", "n")
	for i := range 3 * chunkEvents {
		s.Span(tr, Time(i), Time(i+1), "span", "c", Arg{Key: "i", Val: i})
	}
	for _, ok := range []int{0, chromeFlushAt, 1 << 30} {
		err := s.WriteJSON(&errWriter{ok: ok})
		if (err != nil) != (ok < 1<<30) {
			t.Fatalf("ok=%d: err = %v", ok, err)
		}
	}
}

// TestChunkedEventsKeepOrder records events across several storage chunks
// and checks that the count, the streamer's replay and both exports see
// them all, in record order.
func TestChunkedEventsKeepOrder(t *testing.T) {
	const n = 2*chunkEvents + 17
	s := New()
	tr := s.NewTrack("g", "n")
	for i := range n {
		s.Counter(tr, Time(i), "c", int64(i))
	}
	if s.Events() != n {
		t.Fatalf("Events() = %d, want %d", s.Events(), n)
	}
	var replayed []Time
	s.SetStreamer(func(e StreamEvent) { replayed = append(replayed, e.TS) })
	s.Counter(tr, n, "c", n)
	if len(replayed) != n+1 {
		t.Fatalf("streamer saw %d events, want %d", len(replayed), n+1)
	}
	for i, ts := range replayed {
		if ts != Time(i) {
			t.Fatalf("streamed event %d has ts %d", i, ts)
		}
	}

	var js bytes.Buffer
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	data := doc.TraceEvents[2:] // process and thread names first
	if len(data) != n+1 {
		t.Fatalf("JSON holds %d events, want %d", len(data), n+1)
	}
	for i, e := range data {
		if e.TS != float64(i)/1e3 {
			t.Fatalf("JSON event %d has ts %v", i, e.TS)
		}
	}

	var csv bytes.Buffer
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSuffix(csv.String(), "\n"), "\n")[1:]
	if len(rows) != n+1 {
		t.Fatalf("CSV holds %d rows, want %d", len(rows), n+1)
	}
	for i, row := range rows {
		if !strings.HasPrefix(row, strconv.Itoa(i)+",") {
			t.Fatalf("CSV row %d = %q", i, row)
		}
	}
}
