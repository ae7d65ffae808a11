package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// The appenders below write exactly the bytes encoding/json (or, for
// timestamps, strconv.FormatFloat) would, without reflection: they are the
// hot path of every trace export and of the run store's span lines. Any
// input outside their fast path is handed to the general encoder, so the
// output never depends on which path ran.

// AppendString appends s as a JSON string, byte-identical to json.Marshal(s).
// Printable ASCII other than the characters json.Marshal escapes (`"`, `\`,
// and the HTML-sensitive `<`, `>`, `&`) is copied raw; any other string —
// control bytes, non-ASCII, invalid UTF-8 — goes through json.Marshal.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// AppendUsec appends a nanosecond stamp as the microseconds the Chrome
// trace-event format expects, with three decimals so output is byte-stable:
// the bytes of strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64). Below 1e15
// the double's error is under 1.2e-4 µs, far from the 5e-4 rounding
// midpoint, so integer division prints the same digits.
func AppendUsec(dst []byte, ns int64) []byte {
	if ns < 0 || ns >= 1e15 {
		return strconv.AppendFloat(dst, float64(ns)/1e3, 'f', 3, 64)
	}
	dst = strconv.AppendInt(dst, ns/1000, 10)
	frac := ns % 1000
	return append(dst, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}

// AppendValue appends v as JSON, byte-identical to json.Marshal(v). The
// argument types the instrumented layers record are switched directly;
// anything else, floats included, goes through json.Marshal, so an
// unencodable value (a NaN, a channel) still returns its error.
func AppendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case string:
		return AppendString(dst, x), nil
	case int:
		return strconv.AppendInt(dst, int64(x), 10), nil
	case int32:
		return strconv.AppendInt(dst, int64(x), 10), nil
	case int64:
		return strconv.AppendInt(dst, x, 10), nil
	case uint32:
		return strconv.AppendUint(dst, uint64(x), 10), nil
	case uint64:
		return strconv.AppendUint(dst, x, 10), nil
	case bool:
		return strconv.AppendBool(dst, x), nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// chromeFlushAt is the buffered length past which a ChromeWriter hands its
// bytes to the underlying writer; the buffer is allocated at twice that so
// one more event rarely grows it.
const chromeFlushAt = 32 << 10

// ChromeWriter streams one Chrome trace-event JSON document ("JSON object
// format", loadable in Perfetto or chrome://tracing) through a reused
// buffer. It is the one encoder behind Sink.WriteJSON and the run store's
// composed traces. Write errors are latched: after the first, nothing more
// is written and Finish reports it.
type ChromeWriter struct {
	w   io.Writer
	buf []byte
	n   int // objects written
	err error
}

// NewChromeWriter starts a document on w.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	cw := &ChromeWriter{w: w, buf: make([]byte, 0, 2*chromeFlushAt)}
	cw.buf = append(cw.buf, `{"displayTimeUnit":"ms","traceEvents":[`...)
	return cw
}

// next opens the next object of the event array.
func (cw *ChromeWriter) next() {
	if cw.n > 0 {
		cw.buf = append(cw.buf, ',')
	}
	cw.n++
	cw.buf = append(cw.buf, '\n')
}

func (cw *ChromeWriter) flush() {
	if cw.err == nil {
		_, cw.err = cw.w.Write(cw.buf)
	}
	cw.buf = cw.buf[:0]
}

// ProcessName writes the metadata event naming process pid.
func (cw *ChromeWriter) ProcessName(pid int, name string) {
	cw.meta("process_name", pid, 0, name)
}

// ThreadName writes the metadata event naming thread tid of process pid.
func (cw *ChromeWriter) ThreadName(pid, tid int, name string) {
	cw.meta("thread_name", pid, tid, name)
}

func (cw *ChromeWriter) meta(kind string, pid, tid int, name string) {
	cw.next()
	cw.buf = append(cw.buf, `{"name":"`...)
	cw.buf = append(cw.buf, kind...)
	cw.buf = append(cw.buf, `","ph":"M","pid":`...)
	cw.buf = strconv.AppendInt(cw.buf, int64(pid), 10)
	cw.buf = append(cw.buf, `,"tid":`...)
	cw.buf = strconv.AppendInt(cw.buf, int64(tid), 10)
	cw.buf = append(cw.buf, `,"args":{"name":`...)
	cw.buf = AppendString(cw.buf, name)
	cw.buf = append(cw.buf, `}}`...)
	if len(cw.buf) >= chromeFlushAt {
		cw.flush()
	}
}

// Event writes one event in phase ph at ts on thread (pid, tid). cat is
// omitted when empty; dur is written for complete spans ("X") only, and
// instants ("i") are thread-scoped. An arg that does not encode fails the
// event with an error naming its key; the document is then incomplete.
func (cw *ChromeWriter) Event(name, cat, ph string, ts, dur Time, pid, tid int, args []Arg) error {
	cw.next()
	b := append(cw.buf, `{"name":`...)
	b = AppendString(b, name)
	if cat != "" {
		b = append(b, `,"cat":`...)
		b = AppendString(b, cat)
	}
	b = append(b, `,"ph":`...)
	b = AppendString(b, ph)
	b = append(b, `,"ts":`...)
	b = AppendUsec(b, ts)
	if ph == "X" {
		b = append(b, `,"dur":`...)
		b = AppendUsec(b, dur)
	}
	if ph == "i" {
		b = append(b, `,"s":"t"`...)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	if len(args) > 0 {
		b = append(b, `,"args":{`...)
		for i, a := range args {
			if i > 0 {
				b = append(b, ',')
			}
			b = AppendString(b, a.Key)
			b = append(b, ':')
			var err error
			if b, err = AppendValue(b, a.Val); err != nil {
				cw.buf = b
				return fmt.Errorf("arg %q: %w", a.Key, err)
			}
		}
		b = append(b, '}')
	}
	cw.buf = append(b, '}')
	if len(cw.buf) >= chromeFlushAt {
		cw.flush()
	}
	return nil
}

// Finish closes the document and writes what is still buffered. It reports
// the first write error, if any. It does not close the underlying writer.
func (cw *ChromeWriter) Finish() error {
	cw.buf = append(cw.buf, "\n]}\n"...)
	cw.flush()
	return cw.err
}
