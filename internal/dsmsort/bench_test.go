package dsmsort

import (
	"testing"

	"lmas/internal/cluster"
	"lmas/internal/records"
)

func benchSort(b *testing.B, placement Placement, asus int) {
	for i := 0; i < b.N; i++ {
		cl := cluster.New(testParams(1, asus))
		in := MakeInput(cl, 1<<14, records.Uniform{}, 42, 64)
		cfg := Config{Alpha: 16, Beta: 64, Gamma2: 16, PacketRecords: 64,
			Placement: placement, Seed: 42}
		res, err := Sort(cl, cfg, in)
		if err != nil {
			b.Fatal(err)
		}
		// End-of-run recycling (the pool contract): the next iteration
		// draws these buffers instead of allocating.
		res.Output.Free()
		in.Free()
	}
}

func BenchmarkSortActive(b *testing.B)       { benchSort(b, Active, 8) }
func BenchmarkSortConventional(b *testing.B) { benchSort(b, Conventional, 8) }
func BenchmarkSortHybrid(b *testing.B)       { benchSort(b, Hybrid, 8) }

// BenchmarkMakeInput measures input generation and loading alone: 2^16
// records in 64-record packets, striped over 8 ASUs. Bytes are the records
// generated.
func BenchmarkMakeInput(b *testing.B) {
	const n = 1 << 16
	b.SetBytes(n * int64(testParams(1, 8).RecordSize))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl := cluster.New(testParams(1, 8))
		b.StartTimer()
		MakeInput(cl, n, records.Uniform{}, 42, 64).Free()
	}
}

func BenchmarkRunFormationOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cl := cluster.New(testParams(1, 8))
		in := MakeInput(cl, 1<<15, records.Uniform{}, 42, 64)
		cfg := Config{Alpha: 16, Beta: 64, Gamma2: 2, PacketRecords: 64,
			Placement: Active, Seed: 42}
		rs, _, err := RunFormation(cl, cfg, in)
		if err != nil {
			b.Fatal(err)
		}
		// End-of-run recycling (the pool contract): the next iteration
		// draws these buffers instead of allocating.
		rs.Free()
		in.Free()
	}
}

func BenchmarkMergePassOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl := cluster.New(testParams(1, 8))
		in := MakeInput(cl, 1<<14, records.Uniform{}, 42, 64)
		cfg := Config{Alpha: 8, Beta: 64, Gamma2: 16, PacketRecords: 64,
			Placement: Active, Seed: 42}
		rs, _, err := RunFormation(cl, cfg, in)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		out, _, err := MergePass(cl, cfg, rs)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		out.Free()
		rs.Free()
		in.Free()
		b.StartTimer()
	}
}
