package pqueue

import (
	"math/rand"
	"testing"

	"lmas/internal/bte"
	"lmas/internal/cluster"
	"lmas/internal/sim"
)

func BenchmarkPushPopInMemory(b *testing.B) {
	cl := cluster.New(cluster.DefaultParams())
	q := New(cl, cl.Hosts[0], bte.NewMemory(), 1<<12)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	b.ResetTimer()
	cl.Sim.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			q.Push(p, Item{Key: keys[i%4096]})
			if i%2 == 1 {
				q.PopMin(p)
			}
		}
	})
	if err := cl.Sim.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpillHeavy is the external-memory path as a fixed-size job per
// op: push 64k items through a 64-item buffer, which spills 1024 sorted
// runs to a disk engine, then drain the queue.
func BenchmarkSpillHeavy(b *testing.B) {
	const items = 1 << 16
	cl := cluster.New(cluster.DefaultParams())
	q := New(cl, cl.Hosts[0], bte.NewDisk(cl.ASUs[0].Disk), 64)
	b.ResetTimer()
	cl.Sim.Spawn("bench", func(p *sim.Proc) {
		for n := 0; n < b.N; n++ {
			for i := 0; i < items; i++ {
				q.Push(p, Item{Key: uint64(i * 2654435761 % (1 << 30))})
			}
			for {
				if _, ok := q.PopMin(p); !ok {
					break
				}
			}
		}
	})
	if err := cl.Sim.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPeekPopFull is one step of TerraFlow's time-forward loop on a
// full 4096-item buffer: Peek at the minimum, PopMin it, and Push a
// message forward (a larger key), so the queue stays at 4096 items.
func BenchmarkPeekPopFull(b *testing.B) {
	const items = 4096
	cl := cluster.New(cluster.DefaultParams())
	q := New(cl, cl.Hosts[0], bte.NewMemory(), items)
	rng := rand.New(rand.NewSource(1))
	steps := make([]uint64, 4096)
	for i := range steps {
		steps[i] = 1 + uint64(rng.Intn(1<<20))
	}
	cl.Sim.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < items; i++ {
			q.Push(p, Item{Key: steps[i]})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			it, _ := q.Peek(p)
			q.PopMin(p)
			q.Push(p, Item{Key: it.Key + steps[i%len(steps)], Payload: it.Payload + 1})
		}
	})
	if err := cl.Sim.Run(); err != nil {
		b.Fatal(err)
	}
}
