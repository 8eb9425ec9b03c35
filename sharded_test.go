package rma

import (
	"testing"

	"rma/internal/workload"
)

// Constructor validation: a non-positive shard count is a caller bug,
// not a request for a silently serialized single-shard map.
func TestNewShardedValidation(t *testing.T) {
	for _, k := range []int{0, -3} {
		if _, err := NewSharded(k); err == nil {
			t.Errorf("NewSharded(%d) succeeded, want error", k)
		}
		if _, err := NewShardedFromSample(k, []int64{1, 2, 3}); err == nil {
			t.Errorf("NewShardedFromSample(%d) succeeded, want error", k)
		}
	}
	s, err := NewSharded(1)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 1 || len(s.Boundaries()) != 0 {
		t.Fatalf("NewSharded(1) = %d shards, boundaries %v", s.NumShards(), s.Boundaries())
	}
}

// TestShardedFootprintMatchesArray: every shard of a Sharded map is
// epoch-gated, and the gate must not cost memory. Loaded with the same
// keys, by Insert or by ApplyBatch, one shard and eight shards end
// within 3% of an un-gated Array's bytes per key.
func TestShardedFootprintMatchesArray(t *testing.T) {
	const n = 1 << 20
	keys := make([]int64, n)
	rng := workload.NewRNG(5)
	for i := range keys {
		keys[i] = int64(rng.Uint64()) // the whole domain, so every shard fills
	}
	a, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := a.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	base := float64(a.FootprintBytes()) / n
	for _, shards := range []int{1, 8} {
		for _, byBatch := range []bool{false, true} {
			s, err := NewSharded(shards)
			if err != nil {
				t.Fatal(err)
			}
			if byBatch {
				ops := make([]BatchOp, 0, 1024)
				for i, k := range keys {
					ops = append(ops, BatchOp{Kind: OpPut, Key: k, Val: k})
					if len(ops) == cap(ops) || i == n-1 {
						if _, err := s.ApplyBatch(ops); err != nil {
							t.Fatal(err)
						}
						ops = ops[:0]
					}
				}
			} else {
				for _, k := range keys {
					if err := s.Insert(k, k); err != nil {
						t.Fatal(err)
					}
				}
			}
			got := float64(s.FootprintBytes()) / float64(s.Size())
			t.Logf("%d shards, batch=%v: %.2f bytes/key (Array %.2f)", shards, byBatch, got, base)
			if got > 1.03*base {
				t.Errorf("%d shards, batch=%v: %.2f bytes/key, more than 3%% above Array's %.2f",
					shards, byBatch, got, base)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
