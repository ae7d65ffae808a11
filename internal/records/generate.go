package records

import (
	"encoding/binary"
	"math"
	"math/rand"
)

// KeyDist generates sort keys for synthetic workloads. Implementations must
// be deterministic functions of the supplied rng.
type KeyDist interface {
	// Name identifies the distribution in experiment output.
	Name() string
	// Draw produces the next key.
	Draw(rng *rand.Rand) Key
}

// Uniform draws keys uniformly from the full key space.
type Uniform struct{}

func (Uniform) Name() string            { return "uniform" }
func (Uniform) Draw(rng *rand.Rand) Key { return Key(rng.Uint32()) }

// Exponential draws keys from an exponential distribution scaled so that
// roughly all mass falls in the low end of the key space — the skewed
// distribution used for the second half of the Figure 10 input. Mean sets
// the distribution mean as a fraction of the key space (e.g. 0.05 puts ~95%
// of keys below 0.15 of the space).
type Exponential struct {
	Mean float64
}

func (Exponential) Name() string { return "exponential" }

func (e Exponential) Draw(rng *rand.Rand) Key {
	mean := e.Mean
	if mean <= 0 {
		mean = 0.05
	}
	v := rng.ExpFloat64() * mean * float64(MaxKey)
	if v >= float64(MaxKey) {
		return MaxKey
	}
	return Key(v)
}

// Zipf draws keys with a Zipfian rank-frequency law mapped over the key
// space, a heavier-tailed skew than Exponential.
type Zipf struct {
	S float64 // exponent > 1; 0 means 1.2
	N int     // distinct values; 0 means 1<<20
}

func (Zipf) Name() string { return "zipf" }

func (z Zipf) Draw(rng *rand.Rand) Key {
	s, n := z.S, z.N
	if s <= 1 {
		s = 1.2
	}
	if n <= 0 {
		n = 1 << 20
	}
	zf := rand.NewZipf(rng, s, 1, uint64(n-1))
	// NewZipf per draw would be wasteful; but Zipf is only used in small
	// ablations. Map rank onto the key space.
	r := zf.Uint64()
	return Key(float64(r) / float64(n) * float64(MaxKey))
}

// Sorted emits keys in increasing order (best case for distribution skew).
type Sorted struct{ next Key }

func (*Sorted) Name() string { return "sorted" }
func (s *Sorted) Draw(rng *rand.Rand) Key {
	k := s.next
	s.next += 1 << 12
	return k
}

// Generate builds a buffer of n records of the given size with keys drawn
// from dist and pseudorandom payloads, all derived deterministically from
// seed.
func Generate(n, size int, seed int64, dist KeyDist) Buffer {
	b := NewBuffer(n, size)
	rng := rand.New(rand.NewSource(seed))
	fill(b, 0, n, rng, dist)
	return b
}

// GenerateHalves builds the Figure 10 workload: the first half of the
// records drawn from first, the second half from second ("The first half of
// the input data is uniformly distributed, while the second half is
// skewed"). The order matters: streamed in sequence, the skew arrives midway
// through the run.
func GenerateHalves(n, size int, seed int64, first, second KeyDist) Buffer {
	b := NewBuffer(n, size)
	rng := rand.New(rand.NewSource(seed))
	fill(b, 0, n/2, rng, first)
	fill(b, n/2, n, rng, second)
	return b
}

// fill writes records [lo, hi) of b, drawing one payload seed and then one
// key from rng per record, in record order.
func fill(b Buffer, lo, hi int, rng *rand.Rand, dist KeyDist) {
	for i := lo; i < hi; i++ {
		expandPayload(b.Record(i), rng.Uint64())
		b.SetKey(i, dist.Draw(rng))
	}
}

// expandPayload writes rec's payload (every byte after the key) from the
// seed x: byte j is byte j%8 of the current x in little-endian order, and x
// takes one LCG step after each byte with j%8 == 7. That is cheaper than
// rng.Read and just as good for checksum purposes. The bytes up to the first
// 8-byte boundary and the tail go one at a time; every whole word between
// them is one PutUint64.
func expandPayload(rec []byte, x uint64) {
	j := KeyBytes
	for ; j < len(rec) && j%8 != 0; j++ {
		rec[j] = byte(x >> (uint(j%8) * 8))
		if j%8 == 7 {
			x = lcgStep(x)
		}
	}
	for ; j+8 <= len(rec); j += 8 {
		binary.LittleEndian.PutUint64(rec[j:], x)
		x = lcgStep(x)
	}
	for ; j < len(rec); j++ {
		rec[j] = byte(x >> (uint(j%8) * 8))
	}
}

// lcgStep advances the payload generator (Knuth's MMIX constants).
func lcgStep(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// Splitters returns α-1 key boundaries that partition the key space into α
// equal-width ranges: bucket(k) = number of splitters < ... <= k. With
// uniformly distributed keys the buckets balance; with skewed keys they do
// not — exactly the imbalance that load management addresses in Figure 10.
func Splitters(alpha int) []Key {
	if alpha < 1 {
		panic("records: alpha must be >= 1")
	}
	sp := make([]Key, alpha-1)
	for i := range sp {
		sp[i] = Key(uint64(i+1) * (uint64(MaxKey) + 1) / uint64(alpha))
	}
	return sp
}

// BucketOf reports which of the len(sp)+1 ranges k falls in, by binary
// search over the splitters: the comparison cost is ceil(log2(alpha)), which
// is the "number of compares per key" the paper's work equation counts for
// an alpha-way distribute.
func BucketOf(k Key, sp []Key) int {
	lo, hi := 0, len(sp)
	for lo < hi {
		mid := (lo + hi) / 2
		if k >= sp[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SampleSplitters draws α-1 splitters from the empirical distribution of b
// so buckets balance even for skewed data — the data-dependent alternative
// that static configurations lack.
func SampleSplitters(b Buffer, alpha, sampleSize int, seed int64) []Key {
	if alpha < 2 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	n := b.Len()
	if sampleSize > n {
		sampleSize = n
	}
	keys := make([]Key, sampleSize)
	for i := range keys {
		keys[i] = b.Key(rng.Intn(n))
	}
	sortKeys(keys)
	sp := make([]Key, alpha-1)
	for i := range sp {
		sp[i] = keys[(i+1)*sampleSize/alpha]
	}
	return sp
}

func sortKeys(keys []Key) {
	// Insertion-free path: keys fit in uint32; use sort.Slice.
	sortSlice(keys)
}

func sortSlice(keys []Key) {
	// Small helper kept separate for testability.
	quickSortKeys(keys, 0, len(keys)-1)
}

func quickSortKeys(a []Key, lo, hi int) {
	for lo < hi {
		if hi-lo < 12 {
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && a[j] < a[j-1]; j-- {
					a[j], a[j-1] = a[j-1], a[j]
				}
			}
			return
		}
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		p := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if j-lo < hi-i {
			quickSortKeys(a, lo, j)
			lo = i
		} else {
			quickSortKeys(a, i, hi)
			hi = j
		}
	}
}

// ExpectedShare reports the expected fraction of keys falling in bucket i of
// alpha equal-width buckets under dist — used by tests to verify that the
// generators produce the skew the experiments rely on.
func ExpectedShare(dist KeyDist, alpha, i int) float64 {
	switch d := dist.(type) {
	case Uniform:
		return 1.0 / float64(alpha)
	case Exponential:
		mean := d.Mean
		if mean <= 0 {
			mean = 0.05
		}
		lo := float64(i) / float64(alpha) / mean
		hi := float64(i+1) / float64(alpha) / mean
		share := math.Exp(-lo) - math.Exp(-hi)
		if i == alpha-1 {
			share += math.Exp(-hi) // clamped tail mass
		}
		return share
	default:
		return math.NaN()
	}
}
