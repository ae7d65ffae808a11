package main

import (
	"fmt"
	"math/rand"
	"time"

	"lmas/internal/bte"
	"lmas/internal/cluster"
	"lmas/internal/pqueue"
	"lmas/internal/records"
	"lmas/internal/sim"
)

// probes times single-layer operations through their public APIs, apart
// from any workload.
func probes(seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	for _, pr := range []struct {
		name string
		n    int
		fn   func(n int, seed int64) (float64, error)
	}{
		{"sim.handoff_ns", 200000, probeHandoff},
		{"sim.spawn_exit_ns", 100000, probeSpawnExit},
		{"sim.far_timer_ns", 400000, probeFarTimer},
		{"pqueue.pop_min_ns", 20000, probePopMin},
		{"records.sort_block_ns", 2000, probeSortBlock},
	} {
		v, err := pr.fn(pr.n, seed)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", pr.name, err)
		}
		out[pr.name] = v
	}
	gen, sum := probeRecordsMBps(1<<19, seed)
	out["records.generate_mb_per_s"] = gen
	out["records.checksum_mb_per_s"] = sum
	return out, nil
}

func perOp(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// probeHandoff is one Put/Get round trip through a capacity-1 sim.Queue
// between two procs.
func probeHandoff(n int, _ int64) (float64, error) {
	s := sim.New()
	q := sim.NewQueue[int](s, "probe", 1)
	s.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := q.Put(p, i); err != nil {
				return
			}
		}
		q.Close()
	})
	got := 0
	s.Spawn("consumer", func(p *sim.Proc) {
		for {
			if _, ok := q.Get(p); !ok {
				return
			}
			got++
		}
	})
	t := time.Now()
	if err := s.Run(); err != nil {
		return 0, err
	}
	d := time.Since(t)
	if got != n {
		return 0, fmt.Errorf("handed off %d of %d", got, n)
	}
	return perOp(d, n), nil
}

// probeSpawnExit is one short-lived proc: spawned, sleeps once, exits.
func probeSpawnExit(n int, _ int64) (float64, error) {
	s := sim.New()
	done := 0
	work := func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		done++
	}
	s.Spawn("gen", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			s.Spawn("w", work)
			p.Sleep(sim.Microsecond)
		}
	})
	t := time.Now()
	if err := s.Run(); err != nil {
		return 0, err
	}
	d := time.Since(t)
	if done != n {
		return 0, fmt.Errorf("%d of %d procs finished", done, n)
	}
	return perOp(d, n), nil
}

// probeFarTimer is one sim.After timer 1–257 ms out, scheduled and fired.
func probeFarTimer(n int, seed int64) (float64, error) {
	rng := rand.New(rand.NewSource(seed))
	delays := make([]sim.Duration, n)
	for i := range delays {
		delays[i] = sim.Millisecond + sim.Duration(rng.Int63n(int64(256*sim.Millisecond)))
	}
	s := sim.New()
	fired := 0
	tick := func() { fired++ }
	t := time.Now()
	for _, d := range delays {
		s.After(d, tick)
	}
	if err := s.Run(); err != nil {
		return 0, err
	}
	d := time.Since(t)
	if fired != n {
		return 0, fmt.Errorf("%d of %d timers fired", fired, n)
	}
	return perOp(d, n), nil
}

// probePopMin is one PopMin from an in-memory pqueue holding 4096 items,
// plus the Push that refills it.
func probePopMin(n int, seed int64) (float64, error) {
	const items = 4096
	cl := cluster.New(serialParams(1, 1))
	q := pqueue.New(cl, cl.Hosts[0], bte.NewMemory(), items)
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, items+n)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	var d time.Duration
	var err error
	cl.Sim.Spawn("probe", func(p *sim.Proc) {
		for _, k := range keys[:items] {
			q.Push(p, pqueue.Item{Key: k})
		}
		t := time.Now()
		for _, k := range keys[items:] {
			if _, ok := q.PopMin(p); !ok {
				err = fmt.Errorf("queue empty")
				return
			}
			q.Push(p, pqueue.Item{Key: k})
		}
		d = time.Since(t)
	})
	if rerr := cl.Sim.Run(); rerr != nil {
		return 0, rerr
	}
	if err != nil {
		return 0, err
	}
	return perOp(d, n), nil
}

// probeSortBlock is one Buffer.Sort of a β=1024-record block.
func probeSortBlock(n int, seed int64) (float64, error) {
	const beta = 1024
	size := cluster.DefaultParams().RecordSize
	src := records.Generate(beta*8, size, seed, records.Uniform{})
	blk := records.NewBuffer(beta, size)
	var d time.Duration
	for i := 0; i < n; i++ {
		off := (i % 8) * beta
		blk.CopyFrom(0, src.Slice(off, off+beta))
		t := time.Now()
		blk.Sort()
		d += time.Since(t)
		if !blk.IsSorted() {
			return 0, fmt.Errorf("block not sorted")
		}
	}
	return perOp(d, n), nil
}

// probeRecordsMBps is records.Generate and Checksum.Add throughput over n
// uniform records, in MB/s.
func probeRecordsMBps(n int, seed int64) (gen, sum float64) {
	size := cluster.DefaultParams().RecordSize
	mb := float64(n*size) / 1e6
	t := time.Now()
	b := records.Generate(n, size, seed, records.Uniform{})
	gen = mb / time.Since(t).Seconds()
	var c records.Checksum
	t = time.Now()
	c.Add(b)
	sum = mb / time.Since(t).Seconds()
	return gen, sum
}
