package dsmsort

import (
	"bytes"
	"testing"

	"lmas/internal/cluster"
	"lmas/internal/container"
	"lmas/internal/records"
)

// TestMakeInputNamedMatchesGenerate pins the loaded input to the serial
// generators: the packets, read in index order, are exactly
// records.Generate (or GenerateHalves), set i holds packets i, i+d, ..., and
// the input checksum digests the same bytes. n is above the chunking
// threshold of the offloaded generators, and odd so that a packet straddles
// the halves boundary for every packet size but 1.
func TestMakeInputNamedMatchesGenerate(t *testing.T) {
	const n, d, seed = 16385, 3, 17
	size := cluster.DefaultParams().RecordSize
	want := map[string]records.Buffer{
		"uniform": records.Generate(n, size, seed, records.Uniform{}),
		"exp":     records.Generate(n, size, seed, records.Exponential{}),
		"zipf":    records.Generate(n, size, seed, records.Zipf{}),
		"sorted":  records.Generate(n, size, seed, &records.Sorted{}),
		"halves":  records.GenerateHalves(n, size, seed, records.Uniform{}, records.Exponential{}),
	}
	for dist, gen := range want {
		var sum records.Checksum
		sum.Add(gen)
		for _, packet := range []int{1, 7, 64} {
			cl := cluster.New(testParams(1, d))
			in, err := MakeInputNamed(cl, n, dist, seed, packet)
			if err != nil {
				t.Fatal(err)
			}
			perSet := make([][]container.Packet, d)
			for i, set := range in.Sets {
				set.ForEach(func(pk container.Packet) bool {
					perSet[i] = append(perSet[i], pk)
					return true
				})
			}
			var got []byte
			for pi := 0; pi*packet < n; pi++ {
				set, k := pi%d, pi/d
				if k >= len(perSet[set]) {
					t.Fatalf("%s/%d: set %d has no packet %d", dist, packet, set, pi)
				}
				pk := perSet[set][k]
				if want := min(packet, n-pi*packet); pk.Len() != want {
					t.Fatalf("%s/%d: packet %d holds %d records, want %d", dist, packet, pi, pk.Len(), want)
				}
				got = append(got, pk.Buf.Raw()...)
			}
			if len(got) != len(gen.Raw()) {
				t.Fatalf("%s/%d: sets hold %d bytes, want %d", dist, packet, len(got), len(gen.Raw()))
			}
			if !bytes.Equal(got, gen.Raw()) {
				t.Fatalf("%s/%d: loaded input differs from the serial generator", dist, packet)
			}
			if in.N != n || in.Checksum != sum {
				t.Fatalf("%s/%d: input N=%d checksum %v, want N=%d %v", dist, packet, in.N, in.Checksum, n, sum)
			}
			in.Free()
		}
	}
}
