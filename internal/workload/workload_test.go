package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical draws out of 1000", same)
	}
}

func TestRNGUint64nBounds(t *testing.T) {
	r := NewRNG(7)
	for _, n := range []uint64{1, 2, 3, 7, 64, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRNGUint64nUniformity(t *testing.T) {
	r := NewRNG(99)
	const n, draws = 10, 100000
	var buckets [n]int
	for i := 0; i < draws; i++ {
		buckets[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range buckets {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(3)
	out := make([]int, 257)
	r.Perm(out)
	seen := make([]bool, len(out))
	for _, v := range out {
		if v < 0 || v >= len(out) || seen[v] {
			t.Fatalf("not a permutation: value %d", v)
		}
		seen[v] = true
	}
}

func TestZipfRankBounds(t *testing.T) {
	for _, alpha := range []float64{0.5, 1.0, 1.5, 2.0, 3.0} {
		z := NewZipf(1, alpha, 1000, false)
		for i := 0; i < 5000; i++ {
			r := z.NextRank()
			if r < 1 || r > 1000 {
				t.Fatalf("alpha=%v: rank %d out of [1,1000]", alpha, r)
			}
		}
	}
}

// TestZipfFrequencies checks the empirical frequency of the top ranks
// against the analytic Zipf pmf, for skews both below and above 1 — the
// regime math/rand cannot generate and the reason we implement
// rejection-inversion ourselves.
func TestZipfFrequencies(t *testing.T) {
	for _, alpha := range []float64{0.5, 1.0, 2.0} {
		const n = 1 << 16
		const draws = 200000
		z := NewZipf(12345, alpha, n, false)
		counts := map[uint64]int{}
		for i := 0; i < draws; i++ {
			counts[z.NextRank()]++
		}
		// Normalizing constant (generalized harmonic number).
		hn := 0.0
		for i := 1; i <= n; i++ {
			hn += 1 / math.Pow(float64(i), alpha)
		}
		for _, rank := range []uint64{1, 2, 4, 8} {
			want := float64(draws) / math.Pow(float64(rank), alpha) / hn
			if want < 100 {
				continue // too rare for a tight bound
			}
			got := float64(counts[rank])
			if math.Abs(got-want) > 0.15*want+3*math.Sqrt(want) {
				t.Errorf("alpha=%v rank=%d: got %v draws, want ~%v", alpha, rank, got, want)
			}
		}
	}
}

func TestZipfScrambleBijective(t *testing.T) {
	// The scramble must be a bijection on [0, n) so that the key
	// distribution is an exact relabeling of the rank distribution.
	const n = 1000 // deliberately not a power of two
	z := NewZipf(77, 1.0, n, true)
	seen := make([]bool, n)
	for rank := uint64(0); rank < n; rank++ {
		v := rank
		for {
			v = (v*z.mult + z.add) & z.mask
			if v < z.n {
				break
			}
		}
		if seen[v] {
			t.Fatalf("scramble collision at image %d", v)
		}
		seen[v] = true
	}
}

func TestZipfDifferentSeedsHammerDifferentKeys(t *testing.T) {
	a := NewZipf(1, 2.0, ZipfRange, true)
	b := NewZipf(2, 2.0, ZipfRange, true)
	// The most frequent key differs across seeds (this is what makes the
	// paper's mixed workload hammer different array portions).
	counts := func(z *Zipf) (top int64) {
		m := map[int64]int{}
		for i := 0; i < 5000; i++ {
			m[z.Next()]++
		}
		best := -1
		for k, c := range m {
			if c > best {
				best, top = c, k
			}
		}
		return top
	}
	if ka, kb := counts(a), counts(b); ka == kb {
		t.Fatalf("top keys identical across seeds: %d", ka)
	}
}

func TestSequential(t *testing.T) {
	s := NewSequential(10, 3)
	for i := 0; i < 100; i++ {
		if got, want := s.Next(), int64(10+3*i); got != want {
			t.Fatalf("step %d: got %d want %d", i, got, want)
		}
	}
}

func TestUniformBounded(t *testing.T) {
	u := NewUniform(9, 1000)
	for i := 0; i < 10000; i++ {
		if k := u.Next(); k < 0 || k >= 1000 {
			t.Fatalf("bounded uniform out of range: %d", k)
		}
	}
	f := NewUniform(9, 0)
	for i := 0; i < 1000; i++ {
		if k := f.Next(); k < 0 {
			t.Fatalf("full-range uniform returned negative key %d", k)
		}
	}
}

func TestPatternsAreDeterministic(t *testing.T) {
	for p := PatternUniform; p <= PatternSequential; p++ {
		a := Keys(NewPattern(p, 5), 100)
		b := Keys(NewPattern(p, 5), 100)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("pattern %v not deterministic at %d", p, i)
			}
		}
	}
}

func TestMul64MatchesBigMultiplication(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		// Verify via 4-limb schoolbook multiplication in uint32 chunks.
		a0, a1 := a&0xffffffff, a>>32
		b0, b1 := b&0xffffffff, b>>32
		p00 := a0 * b0
		p01 := a0 * b1
		p10 := a1 * b0
		p11 := a1 * b1
		carry := (p00>>32 + p01&0xffffffff + p10&0xffffffff) >> 32
		wantHi := p11 + p01>>32 + p10>>32 + carry
		wantLo := a * b
		return hi == wantHi && lo == wantLo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
