package pqueue

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"lmas/internal/bte"
	"lmas/internal/cluster"
	"lmas/internal/sim"
)

// linearPQ is the reference queue: the linear-scan implementation PQ had
// before its buffer and run heads became heaps. It scans the whole
// insertion buffer and every run head on each Peek and PopMin, reads every
// unread run during that scan, and breaks ties between equal run heads by
// the lowest index, i.e. the oldest run. Its virtual-time charges are the
// ones PQ must keep.
type linearPQ struct {
	node   *cluster.Node
	cl     *cluster.Cluster
	eng    bte.Engine
	memCap int
	buf    []Item
	runs   []*linearRun
	len    int
	spills int
}

type linearRun struct {
	id     bte.BlockID
	items  []Item
	loaded bool
	pos    int
}

func (q *linearPQ) Len() int    { return q.len }
func (q *linearPQ) Spills() int { return q.spills }

func (q *linearPQ) charge(p *sim.Proc, compares float64) {
	q.node.Compute(p, compares*q.cl.Params.Costs.CompareOps)
}

func (q *linearPQ) Push(p *sim.Proc, it Item) {
	if len(q.buf) == q.memCap {
		q.spill(p)
	}
	q.buf = append(q.buf, it)
	q.len++
	q.charge(p, log2f(q.memCap))
}

func (q *linearPQ) spill(p *sim.Proc) {
	sort.Slice(q.buf, func(i, j int) bool { return less(q.buf[i], q.buf[j]) })
	data := make([]byte, len(q.buf)*itemBytes)
	for i, it := range q.buf {
		binary.LittleEndian.PutUint64(data[i*itemBytes:], it.Key)
		binary.LittleEndian.PutUint64(data[i*itemBytes+8:], it.Payload)
	}
	q.charge(p, float64(len(q.buf))*log2f(len(q.buf)))
	q.runs = append(q.runs, &linearRun{id: q.eng.Append(p, data)})
	q.spills++
	q.buf = q.buf[:0]
}

func (r *linearRun) load(p *sim.Proc, eng bte.Engine) {
	if r.loaded {
		return
	}
	data := eng.Read(p, r.id)
	r.items = make([]Item, len(data)/itemBytes)
	r.loaded = true
	for i := range r.items {
		r.items[i].Key = binary.LittleEndian.Uint64(data[i*itemBytes:])
		r.items[i].Payload = binary.LittleEndian.Uint64(data[i*itemBytes+8:])
	}
}

func (q *linearPQ) Peek(p *sim.Proc) (Item, bool) {
	if q.len == 0 {
		return Item{}, false
	}
	var best Item
	found := false
	for _, it := range q.buf {
		if !found || less(it, best) {
			best, found = it, true
		}
	}
	for _, r := range q.runs {
		r.load(p, q.eng)
		if r.pos < len(r.items) {
			if it := r.items[r.pos]; !found || less(it, best) {
				best, found = it, true
			}
		}
	}
	q.charge(p, log2f(len(q.runs)+1))
	return best, found
}

func (q *linearPQ) PopMin(p *sim.Proc) (Item, bool) {
	if q.len == 0 {
		return Item{}, false
	}
	bi := -1
	for i := range q.buf {
		if bi < 0 || less(q.buf[i], q.buf[bi]) {
			bi = i
		}
	}
	ri := -1
	for i, r := range q.runs {
		r.load(p, q.eng)
		if r.pos >= len(r.items) {
			continue
		}
		if ri < 0 || less(r.items[r.pos], q.runs[ri].items[q.runs[ri].pos]) {
			ri = i
		}
	}
	var out Item
	switch {
	case bi < 0 && ri < 0:
		return Item{}, false
	case ri < 0 || (bi >= 0 && !less(q.runs[ri].items[q.runs[ri].pos], q.buf[bi])):
		out = q.buf[bi]
		q.buf[bi] = q.buf[len(q.buf)-1]
		q.buf = q.buf[:len(q.buf)-1]
	default:
		r := q.runs[ri]
		out = r.items[r.pos]
		r.pos++
		if r.pos == len(r.items) {
			q.eng.Free(r.id)
			q.runs = append(q.runs[:ri], q.runs[ri+1:]...)
		}
	}
	q.len--
	q.charge(p, log2f(q.memCap)+log2f(len(q.runs)+1))
	return out, true
}

// loggedEngine records every Append, Read and Free with the virtual time
// it was issued at, the block and a digest of the bytes.
type loggedEngine struct {
	bte.Engine
	sim   *sim.Sim
	calls []string
}

func digestBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func (e *loggedEngine) Append(p *sim.Proc, data []byte) bte.BlockID {
	e.calls = append(e.calls, fmt.Sprintf("append t=%d n=%d sum=%x", e.sim.Now(), len(data), digestBytes(data)))
	return e.Engine.Append(p, data)
}

func (e *loggedEngine) Read(p *sim.Proc, id bte.BlockID) []byte {
	b := e.Engine.Read(p, id)
	e.calls = append(e.calls, fmt.Sprintf("read t=%d id=%d sum=%x", e.sim.Now(), id, digestBytes(b)))
	return b
}

func (e *loggedEngine) Free(id bte.BlockID) {
	e.calls = append(e.calls, fmt.Sprintf("free t=%d id=%d", e.sim.Now(), id))
	e.Engine.Free(id)
}

// queue is the surface the differential test drives on both queues.
type queue interface {
	Push(p *sim.Proc, it Item)
	Peek(p *sim.Proc) (Item, bool)
	PopMin(p *sim.Proc) (Item, bool)
	Len() int
	Spills() int
}

// fuzzStep is what one operation observably did.
type fuzzStep struct {
	op          string
	item        Item
	ok          bool
	now         sim.Time
	len, spills int
	engineCalls string // the engine calls the operation made
}

// replay drives a fresh queue built by mk, on a disk engine of its own
// cluster, through the operations ops encodes. Each byte is one operation:
// the low two bits pick Push (0, 1), Peek (2) or PopMin (3); a Push takes
// its key from bits 2-4 and its payload from bit 5, so identical items and
// equal heads across runs are common.
func replay(t *testing.T, ops []byte, mk func(cl *cluster.Cluster, eng bte.Engine) queue) []fuzzStep {
	t.Helper()
	cl := cluster.New(cluster.DefaultParams())
	eng := &loggedEngine{Engine: bte.NewDisk(cl.ASUs[0].Disk), sim: cl.Sim}
	q := mk(cl, eng)
	steps := make([]fuzzStep, 0, len(ops))
	cl.Sim.Spawn("pq", func(p *sim.Proc) {
		for _, b := range ops {
			var s fuzzStep
			before := len(eng.calls)
			switch b & 3 {
			case 0, 1:
				s.op = "push"
				s.item = Item{Key: uint64(b>>2) & 7, Payload: uint64(b>>5) & 1}
				q.Push(p, s.item)
				s.ok = true
			case 2:
				s.op = "peek"
				s.item, s.ok = q.Peek(p)
			case 3:
				s.op = "pop"
				s.item, s.ok = q.PopMin(p)
			}
			s.now = cl.Sim.Now()
			s.len, s.spills = q.Len(), q.Spills()
			s.engineCalls = strings.Join(eng.calls[before:], "; ")
			steps = append(steps, s)
		}
	})
	if err := cl.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	return steps
}

// maxFuzzOps caps an input's length: every operation charges virtual time,
// so a replay costs a few proc switches per operation, and short inputs
// keep the fuzzer's throughput up. At memCap 2 it still leaves hundreds of
// runs alive at once.
const maxFuzzOps = 1024

// FuzzPQMatchesLinearScan drives PQ and the linear-scan reference through
// the same Push/Peek/PopMin sequence and requires identical observable
// behaviour after every operation: the returned item and ok, virtual time,
// Len, Spills, and the sequence of engine calls with their timing and
// bytes.
func FuzzPQMatchesLinearScan(f *testing.F) {
	f.Add(uint8(2), []byte{0, 4, 8, 3, 3, 2, 3})
	f.Add(uint8(3), []byte{28, 24, 20, 16, 12, 8, 4, 0, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	rng := rand.New(rand.NewSource(1))
	for _, memRaw := range []uint8{0, 3, 14, 30} { // memCap 2, 5, 16, 32
		ops := make([]byte, maxFuzzOps)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		f.Add(memRaw, ops)
	}
	// Push-heavy then drain at memCap 2: hundreds of runs alive at once.
	ops := make([]byte, 0, maxFuzzOps)
	for i := 0; i < 3*maxFuzzOps/4; i++ {
		ops = append(ops, byte(rng.Intn(64))&^3)
	}
	for i := 0; i < maxFuzzOps/4; i++ {
		ops = append(ops, 3)
	}
	f.Add(uint8(0), ops)

	f.Fuzz(func(t *testing.T, memRaw uint8, ops []byte) {
		memCap := int(memRaw%31) + 2
		if len(ops) > maxFuzzOps {
			ops = ops[:maxFuzzOps]
		}
		got := replay(t, ops, func(cl *cluster.Cluster, eng bte.Engine) queue {
			return New(cl, cl.Hosts[0], eng, memCap)
		})
		want := replay(t, ops, func(cl *cluster.Cluster, eng bte.Engine) queue {
			return &linearPQ{node: cl.Hosts[0], cl: cl, eng: eng, memCap: memCap}
		})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("memCap %d, op %d (%s): got %+v, want %+v", memCap, i, want[i].op, got[i], want[i])
			}
		}
	})
}
