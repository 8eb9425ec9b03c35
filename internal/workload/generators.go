package workload

// Generator produces a stream of 8-byte keys according to some
// distribution. All implementations in this package are deterministic for
// a given seed.
type Generator interface {
	Next() int64
}

// Uniform draws keys uniformly from [0, Range) (or the full non-negative
// int64 space when Range == 0), mirroring the paper's uniform insertion
// pattern of 8-byte integer keys.
type Uniform struct {
	rng *RNG
	n   uint64
}

// NewUniform returns a uniform key generator. n == 0 means the full
// non-negative 63-bit key space.
func NewUniform(seed uint64, n uint64) *Uniform {
	return &Uniform{rng: NewRNG(seed), n: n}
}

// Next returns the next uniform key.
func (u *Uniform) Next() int64 {
	if u.n == 0 {
		return u.rng.Int63()
	}
	return int64(u.rng.Uint64n(u.n))
}

// Sequential produces strictly increasing keys: the paper's "sequential"
// insertion pattern, which appends at the logical end of the array and is
// the canonical hammering workload.
type Sequential struct {
	next int64
	step int64
}

// NewSequential returns a sequential generator starting at start with the
// given step (step must be > 0).
func NewSequential(start, step int64) *Sequential {
	if step <= 0 {
		panic("workload: Sequential requires step > 0")
	}
	return &Sequential{next: start, step: step}
}

// Next returns the next key in the ascending sequence.
func (s *Sequential) Next() int64 {
	k := s.next
	s.next += s.step
	return k
}

// ZipfRange is the paper's Zipfian key range beta = 2^27 (Section V).
const ZipfRange = 1 << 27

// Pattern names a key distribution used by the experiments.
type Pattern int

// The insertion patterns exercised by Figures 1, 11 and 14.
const (
	PatternUniform Pattern = iota
	PatternZipf1           // Zipf alpha = 1.0
	PatternZipf15          // Zipf alpha = 1.5
	PatternSequential
)

// String returns the human-readable pattern name used in figure output.
func (p Pattern) String() string {
	switch p {
	case PatternUniform:
		return "uniform"
	case PatternZipf1:
		return "zipf-1.0"
	case PatternZipf15:
		return "zipf-1.5"
	case PatternSequential:
		return "sequential"
	default:
		return "unknown"
	}
}

// NewPattern instantiates the named pattern with the given seed.
func NewPattern(p Pattern, seed uint64) Generator {
	switch p {
	case PatternUniform:
		return NewUniform(seed, 0)
	case PatternZipf1:
		return NewZipf(seed, 1.0, ZipfRange, true)
	case PatternZipf15:
		return NewZipf(seed, 1.5, ZipfRange, true)
	case PatternSequential:
		return NewSequential(0, 1)
	default:
		panic("workload: unknown pattern")
	}
}

// Keys draws n keys from g.
func Keys(g Generator, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// ValueFor derives the payload value carried alongside key k. Tests use it
// to verify that scans return the value that was inserted with each key.
func ValueFor(k int64) int64 { return k ^ 0x5bd1e995 }
