package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets are the cpu.* per-layer metrics: lmas packages by name, plus
// runtime_sched (goroutine switching: the sim kernel's proc handoff), gc
// (allocation, marking, sweeping) and other.
var cpuBuckets = []string{"sim", "runtime_sched", "gc", "records", "functor", "dsmsort", "bufpool",
	"container", "pqueue", "extsort", "terraflow", "trace", "critpath", "recorder", "telemetry", "other"}

// profileBuckets decodes a gzipped pprof CPU profile and returns the
// seconds of CPU each bucket spent. A sample goes to the leaf-most frame
// that classifies: a GC or scheduler runtime function, or a function of an
// lmas package. Other runtime and standard-library frames (memmove, sort,
// hashing) are charged to the lmas code that called them.
func profileBuckets(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{}
	for _, b := range cpuBuckets {
		out[b] = 0
	}
	for _, s := range p.samples {
		out[p.bucket(s.locs)] += float64(s.ns) / 1e9
	}
	return out, nil
}

type profSample struct {
	locs []uint64
	ns   int64
}

type profile struct {
	samples []profSample
	locFns  map[uint64][]uint64 // location id -> function ids, leaf first
	fnName  map[uint64]uint64   // function id -> string table index
	strs    []string
}

func (p *profile) bucket(locs []uint64) string {
	for _, l := range locs {
		for _, fn := range p.locFns[l] {
			idx := p.fnName[fn]
			if idx >= uint64(len(p.strs)) {
				continue
			}
			if b := classify(p.strs[idx]); b != "" {
				return b
			}
		}
	}
	return "other"
}

var (
	gcPrefixes = []string{"runtime.gc", "runtime.scan", "runtime.markroot", "runtime.greyobject",
		"runtime.findObject", "runtime.(*gcWork)", "runtime.(*gcBits)", "runtime.sweep", "runtime.bgsweep",
		"runtime.(*sweepLocked)", "runtime.(*mspan)", "runtime.(*mheap)", "runtime.(*mcentral)",
		"runtime.(*mcache)", "runtime.bgscavenge", "runtime.(*pageAlloc)", "runtime.(*scavenger",
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.wbBuf", "runtime.bulkBarrier",
		"runtime.typePointers", "runtime.(*typePointers)", "runtime.heapSetType"}
	schedPrefixes = []string{"runtime.chan", "runtime.selectgo", "runtime.gopark", "runtime.goready",
		"runtime.ready", "runtime.schedule", "runtime.findRunnable", "runtime.execute", "runtime.park_m",
		"runtime.mcall", "runtime.gogo", "runtime.runq", "runtime.futex", "runtime.note", "runtime.stopm",
		"runtime.startm", "runtime.wakep", "runtime.lock2", "runtime.unlock2", "runtime.send", "runtime.recv",
		"runtime.casgstatus", "runtime.goexit0", "runtime.newproc", "runtime.osyield", "runtime.usleep",
		"runtime.semasleep", "runtime.semawakeup", "runtime.resetspinning", "runtime.checkTimers",
		"runtime.stealWork", "runtime.netpoll"}
)

// classify names a frame's bucket, or "" to keep walking toward the root.
func classify(fn string) string {
	if strings.HasPrefix(fn, "runtime.") {
		for _, pre := range gcPrefixes {
			if strings.HasPrefix(fn, pre) {
				return "gc"
			}
		}
		for _, pre := range schedPrefixes {
			if strings.HasPrefix(fn, pre) {
				return "runtime_sched"
			}
		}
		return ""
	}
	rest, ok := strings.CutPrefix(fn, "lmas/internal/")
	if !ok {
		if strings.HasPrefix(fn, "lmas/") || strings.HasPrefix(fn, "main.") {
			return "other"
		}
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	for _, b := range cpuBuckets {
		if b == pkg {
			return b
		}
	}
	return "other"
}

var errProto = errors.New("malformed protobuf")

// decodeProfile reads the parts of a profile.proto message the buckets
// need: samples (field 2), locations (4), functions (5) and the string
// table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFns: map[uint64][]uint64{}, fnName: map[uint64]uint64{}}
	err := walkProto(b, func(field, wire int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s profSample
			var vals []uint64
			err := walkProto(data, func(f, w int, v uint64, d []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = appendInts(s.locs, w, v, d)
				case 2:
					vals, err = appendInts(vals, w, v, d)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				// A CPU profile's values are [samples, cpu nanoseconds].
				s.ns = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := walkProto(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walkProto(d, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFns[id] = fns
		case 5:
			var id, name uint64
			err := walkProto(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.fnName[id] = name
		case 6:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

// walkProto calls fn for each field of a protobuf message: v holds a
// varint or fixed value, data a length-delimited one.
func walkProto(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var (
			v    uint64
			data []byte
		)
		switch wire := key & 7; wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), int(key&7), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendInts appends a repeated integer field, packed or not.
func appendInts(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errProto
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
