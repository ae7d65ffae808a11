package records

import (
	"math/rand"
	"testing"
)

// checksumSizes covers the record shapes the digest must handle: key only,
// a payload shorter than a word, word-aligned sizes, the paper's 128 bytes,
// and a size with a 2-byte tail.
var checksumSizes = []int{4, 12, 48, 128, 130}

func digest(b Buffer) Checksum {
	var c Checksum
	c.Add(b)
	return c
}

func TestChecksumSensitivity(t *testing.T) {
	const n = 6
	for _, size := range checksumSizes {
		b := Generate(n, size, int64(size), Uniform{})
		want := digest(b)

		// Any single flipped bit, anywhere, changes the digest.
		for i := 0; i < n; i++ {
			rec := b.Record(i)
			for j := range rec {
				for k := 0; k < 8; k++ {
					rec[j] ^= 1 << k
					if digest(b) == want {
						t.Fatalf("size %d: flipping bit %d of byte %d of record %d left the checksum unchanged", size, k, j, i)
					}
					rec[j] ^= 1 << k
				}
			}
		}

		// Swapping one payload word between two records changes it.
		for j := KeyBytes; j+8 <= size; j += 8 {
			a, c := b.Record(1)[j:j+8], b.Record(4)[j:j+8]
			var tmp [8]byte
			copy(tmp[:], a)
			copy(a, c)
			copy(c, tmp[:])
			if digest(b) == want {
				t.Fatalf("size %d: swapping payload word at byte %d left the checksum unchanged", size, j)
			}
			copy(c, a)
			copy(a, tmp[:])
		}

		// The top bit of two different words of one record: a fold that
		// only carries differences upward would let these flips cancel.
		for j := 8; j+8 < size; j += 8 {
			rec := b.Record(2)
			rec[j-1] ^= 0x80
			rec[j+7] ^= 0x80
			if digest(b) == want {
				t.Fatalf("size %d: flipping the top bits of words ending at bytes %d and %d left the checksum unchanged", size, j-1, j+7)
			}
			rec[j-1] ^= 0x80
			rec[j+7] ^= 0x80
		}
		if digest(b) != want {
			t.Fatalf("size %d: test did not restore the buffer", size)
		}

		// Permuting the records does not change it.
		rng := rand.New(rand.NewSource(int64(size)))
		perm := NewBuffer(n, size)
		for i, src := range rng.Perm(n) {
			copy(perm.Record(i), b.Record(src))
		}
		if got := digest(perm); got != want {
			t.Fatalf("size %d: permuted checksum %v, want %v", size, got, want)
		}

		// Combine over any split into contiguous pieces equals one Add.
		for trial := 0; trial < 20; trial++ {
			var got Checksum
			for lo := 0; lo < n; {
				hi := lo + rng.Intn(n-lo+1)
				var part Checksum
				part.Add(b.Slice(lo, hi))
				got.Combine(part)
				lo = hi
			}
			if got != want {
				t.Fatalf("size %d: combined checksum %v, want %v", size, got, want)
			}
		}
	}
}
