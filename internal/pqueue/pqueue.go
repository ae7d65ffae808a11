// Package pqueue implements an external-memory priority queue, the
// substrate for time-forward processing [Chiang et al., SODA'95] that
// TerraFlow's watershed step relies on (Section 4.1): "Step 3 uses neighbor
// information to propagate colors from the lowest points up/outward to the
// peaks and ridges... it uses time-forward processing and relies on
// ordering for correctness."
//
// The structure keeps an insertion buffer of bounded size in memory as a
// binary heap; when the buffer fills, it is sorted and spilled to external
// storage as a sorted run. PopMin takes the smaller of the buffer's root
// and the least head among the spilled runs, which a second heap keeps.
// Each item is written and read at most once externally. In-memory work
// is O(log memItems + log runs) comparisons per operation, plus, amortized
// per item, the spill's O(log memItems) sort and the O(1) decode of a read
// run. Virtual time charges the logarithmic comparison counts.
package pqueue

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"lmas/internal/bte"
	"lmas/internal/cluster"
	"lmas/internal/scratch"
	"lmas/internal/sim"
)

// Item is a prioritized message: time-forward processing sends Payload to
// the computation step identified by Key.
type Item struct {
	// Key orders items; for TerraFlow it is (elevation, cell id).
	Key uint64
	// Payload is the message body (a watershed color, for TerraFlow).
	Payload uint64
}

const itemBytes = 16

// PQ is an external-memory priority queue. All operations must be invoked
// from the owning simulation's running proc; external runs are stored on
// the provided engine and charged to its device. CPU comparison costs are
// charged to the owning node.
type PQ struct {
	// Strict enables the time-forward-processing invariant check: once
	// set, popped keys must never regress (TFP only ever sends messages
	// forward in the processing order).
	Strict bool

	node *cluster.Node
	cl   *cluster.Cluster
	eng  bte.Engine

	memCap int
	buf    []Item // insertion buffer, a binary min-heap under less
	// runs holds the read runs that still have items, as a binary
	// min-heap under runBefore. unread holds the runs spilled since the
	// last Peek or PopMin, in spill order; the next Peek or PopMin reads
	// them all, in that order, before it compares anything.
	runs   []*run
	unread []*run

	len      int
	spills   int
	lastKey  uint64
	havePrev bool
}

// run is a spilled sorted run with a read cursor. Drained runs return to
// runPool so the decoded-items slice capacity is reused across spills
// instead of reallocated per run.
type run struct {
	id    bte.BlockID
	seq   int    // spill number
	items []Item // decoded when read; capacity reused via runPool
	pos   int
}

var runPool scratch.Pool[run]

func (r *run) head() Item { return r.items[r.pos] }

// runBefore orders the run heap by head item. Equal heads go to the older
// run: which run drains first sets the run count PopMin charges for.
func runBefore(a, b *run) bool {
	ha, hb := a.head(), b.head()
	if ha != hb {
		return less(ha, hb)
	}
	return a.seq < b.seq
}

// New creates a priority queue whose insertion buffer holds memItems items.
// Spilled runs are stored on eng (typically a disk engine of the node that
// owns the computation); comparison costs are charged to node's CPU.
func New(cl *cluster.Cluster, node *cluster.Node, eng bte.Engine, memItems int) *PQ {
	if memItems < 2 {
		panic("pqueue: memory must hold at least 2 items")
	}
	return &PQ{node: node, cl: cl, eng: eng, memCap: memItems}
}

// Len reports the number of queued items.
func (q *PQ) Len() int { return q.len }

// Spills reports how many runs were ever written externally.
func (q *PQ) Spills() int { return q.spills }

// Push inserts it, spilling the insertion buffer if full.
func (q *PQ) Push(p *sim.Proc, it Item) {
	if len(q.buf) == q.memCap {
		q.spill(p)
	}
	q.buf = append(q.buf, it)
	siftUp(q.buf, len(q.buf)-1, less)
	q.len++
	// One heap-insert's worth of comparisons.
	q.charge(p, log2f(q.memCap))
}

func (q *PQ) spill(p *sim.Proc) {
	slices.SortFunc(q.buf, compareItems)
	// A fresh slice every spill: Append hands its storage to the engine.
	data := make([]byte, len(q.buf)*itemBytes)
	for i, it := range q.buf {
		binary.LittleEndian.PutUint64(data[i*itemBytes:], it.Key)
		binary.LittleEndian.PutUint64(data[i*itemBytes+8:], it.Payload)
	}
	// Sorting cost for the spill.
	q.charge(p, float64(len(q.buf))*log2f(len(q.buf)))
	id := q.eng.Append(p, data)
	r := runPool.Get()
	*r = run{id: id, seq: q.spills, items: r.items[:0]}
	q.unread = append(q.unread, r)
	q.spills++
	q.buf = q.buf[:0]
}

// readSpilled reads the unread runs in spill order and adds them to the
// run heap.
func (q *PQ) readSpilled(p *sim.Proc) {
	for _, r := range q.unread {
		data := q.eng.Read(p, r.id)
		r.items = scratch.Grow(r.items, len(data)/itemBytes)
		for i := range r.items {
			r.items[i].Key = binary.LittleEndian.Uint64(data[i*itemBytes:])
			r.items[i].Payload = binary.LittleEndian.Uint64(data[i*itemBytes+8:])
		}
		q.runs = append(q.runs, r)
		siftUp(q.runs, len(q.runs)-1, runBefore)
	}
	clear(q.unread)
	q.unread = q.unread[:0]
}

// fromBuffer reports whether the minimum is the buffer's root rather than
// the least run head. The buffer wins a tie.
func (q *PQ) fromBuffer() bool {
	return len(q.runs) == 0 || (len(q.buf) > 0 && !less(q.runs[0].head(), q.buf[0]))
}

// Peek reports the smallest item without removing it. ok is false when
// empty.
func (q *PQ) Peek(p *sim.Proc) (Item, bool) {
	if q.len == 0 {
		return Item{}, false
	}
	q.readSpilled(p)
	var best Item
	if q.fromBuffer() {
		best = q.buf[0]
	} else {
		best = q.runs[0].head()
	}
	q.charge(p, log2f(len(q.runs)+1))
	return best, true
}

// PopMin removes and returns the smallest item. ok is false when empty.
// With Strict set, PopMin panics if keys regress across calls.
func (q *PQ) PopMin(p *sim.Proc) (Item, bool) {
	if q.len == 0 {
		return Item{}, false
	}
	q.readSpilled(p)
	var out Item
	if q.fromBuffer() {
		out = q.buf[0]
		last := len(q.buf) - 1
		q.buf[0] = q.buf[last]
		q.buf = q.buf[:last]
		siftDown(q.buf, 0, less)
	} else {
		r := q.runs[0]
		out = r.head()
		r.pos++
		if r.pos == len(r.items) {
			q.eng.Free(r.id)
			last := len(q.runs) - 1
			q.runs[0] = q.runs[last]
			// Clear the tail so the backing array doesn't pin the run,
			// then recycle it: nothing else references a drained run.
			q.runs[last] = nil
			q.runs = q.runs[:last]
			runPool.Put(r)
		}
		siftDown(q.runs, 0, runBefore)
	}
	q.len--
	q.charge(p, log2f(q.memCap)+log2f(len(q.runs)+1))
	if q.Strict && q.havePrev && out.Key < q.lastKey {
		panic(fmt.Sprintf("pqueue: keys regressed: %d after %d", out.Key, q.lastKey))
	}
	q.lastKey, q.havePrev = out.Key, true
	return out, true
}

func (q *PQ) charge(p *sim.Proc, compares float64) {
	if q.node == nil {
		return
	}
	q.node.Compute(p, compares*q.cl.Params.Costs.CompareOps)
}

func less(a, b Item) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Payload < b.Payload
}

func compareItems(a, b Item) int {
	if c := cmp.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return cmp.Compare(a.Payload, b.Payload)
}

// siftUp restores a binary min-heap under before once h[i] is appended or
// made smaller; siftDown, once h[i] is made larger.
func siftUp[T any](h []T, i int, before func(a, b T) bool) {
	for i > 0 {
		parent := (i - 1) / 2
		if !before(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDown[T any](h []T, i int, before func(a, b T) bool) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && before(h[c+1], h[c]) {
			c++
		}
		if !before(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func log2f(n int) float64 {
	if n < 2 {
		return 0
	}
	// Fast integer log2 is enough for cost accounting.
	l := 0
	for v := n - 1; v > 0; v >>= 1 {
		l++
	}
	return float64(l)
}
