package records

import (
	"bytes"
	"math/rand"
	"testing"
)

// fillPerByte is the byte-at-a-time payload loop expandPayload replaced,
// kept as the reference fill's output must match bit for bit.
func fillPerByte(b Buffer, rng *rand.Rand, dist KeyDist) {
	for i := 0; i < b.Len(); i++ {
		rec := b.Record(i)
		x := rng.Uint64()
		for j := KeyBytes; j < len(rec); j++ {
			rec[j] = byte(x >> (uint(j%8) * 8))
			if j%8 == 7 {
				x = x*6364136223846793005 + 1442695040888963407
			}
		}
		b.SetKey(i, dist.Draw(rng))
	}
}

func TestFillMatchesPerByteReference(t *testing.T) {
	const n = 37
	for size := KeyBytes; size <= 140; size++ {
		want := NewBuffer(n, size)
		fillPerByte(want, rand.New(rand.NewSource(int64(size))), Uniform{})
		got := Generate(n, size, int64(size), Uniform{})
		if !bytes.Equal(got.Raw(), want.Raw()) {
			t.Fatalf("size %d: Generate differs from the per-byte reference", size)
		}
	}
}
