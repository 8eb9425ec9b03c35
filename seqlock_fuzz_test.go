package rma

import (
	"sync"
	"testing"
)

// FuzzSeqlockInterleave explores reader-retry vs writer-publish
// interleavings on the lock-free read path. The input stream decodes
// into one writer's mutation sequence (puts, deletes and batch bursts —
// with 8-slot segments and 32-slot pages every burst provokes segment
// spreads, page swaps and resizes, i.e. the publication events the
// seqlock and epoch machinery guard) and a concurrent probe sequence
// the main goroutine races against it through Find, Floor, Ceiling,
// GetBatch and SnapshotScan. The shard count, probe mix and key shapes
// all come from the fuzzed data, so minimized inputs pin the smallest
// structure that provokes a divergence.
//
// Mid-flight, only interleaving-independent properties are asserted:
// any hit carries the key's one true value diffVal(k) (a torn or stale
// read through a recycled page would surface garbage here), navigation
// answers land on the correct side of the probe, snapshot scans yield
// sorted in-range elements. After the writer joins, the map must match
// the sequential reference exactly — a lost update or phantom from a
// racing reader's retry loop would show up as a final-state divergence.
func FuzzSeqlockInterleave(f *testing.F) {
	f.Add([]byte{0x01, 0x00, 0x41, 0x02, 0x81, 0x00, 0xc1, 0x04}, uint8(3), uint8(0x55))
	f.Add([]byte{0x00, 0x10, 0x00, 0x11, 0x00, 0x12, 0x80, 0x10}, uint8(5), uint8(0xC3))
	f.Add([]byte{0x3f, 0xff, 0x00, 0x00, 0xbf, 0xff, 0x40, 0x00}, uint8(2), uint8(0x0F))
	f.Fuzz(func(t *testing.T, data []byte, shardsRaw uint8, probeMix uint8) {
		k := int(shardsRaw)%7 + 2 // 2..8 shards
		type op struct {
			del bool
			key int64
		}
		var ops []op
		var sample []int64
		for i := 0; i+1 < len(data) && len(ops) < 2048; i += 2 {
			key := int64(data[i]&0x3f)<<8 | int64(data[i+1])
			del := data[i]&0x80 != 0
			ops = append(ops, op{del: del, key: key})
			if !del {
				sample = append(sample, key)
			}
		}
		if len(ops) == 0 {
			return
		}
		if len(sample) == 0 {
			sample = []int64{0}
		}
		s, err := NewShardedFromSample(k, sample,
			WithSegmentCapacity(8), WithPageCapacity(32))
		if err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, o := range ops {
				if o.del {
					if _, err := s.Delete(o.key); err != nil {
						t.Error(err)
						return
					}
				} else if err := s.Insert(o.key, diffVal(o.key)); err != nil {
					t.Error(err)
					return
				}
				// Periodic batch bursts re-ingest a window of the stream,
				// forcing bulk loads (and their wholesale republications)
				// into the interleaving.
				if i%64 == 63 {
					lo := i - 63
					batch := make([]BatchOp, 0, 64)
					for _, b := range ops[lo : i+1] {
						if !b.del {
							batch = append(batch, BatchOp{Kind: OpPut, Key: b.key, Val: diffVal(b.key)})
						}
					}
					if _, err := s.ApplyBatch(batch); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()

		// Race the probes against the writer; the mix rotates through the
		// read surface, keyed off the fuzzed probeMix byte.
		var batch [8]int64
		var out []Lookup
		for i, o := range ops {
			x := o.key
			switch (int(probeMix) + i) % 4 {
			case 0:
				if v, ok := s.Find(x); ok && v != diffVal(x) {
					t.Errorf("Find(%d) = %d, want %d", x, v, diffVal(x))
				}
			case 1:
				if fk, fv, ok := s.Floor(x); ok && (fk > x || fv != diffVal(fk)) {
					t.Errorf("Floor(%d) = (%d,%d)", x, fk, fv)
				}
				if ck, cv, ok := s.Ceiling(x); ok && (ck < x || cv != diffVal(ck)) {
					t.Errorf("Ceiling(%d) = (%d,%d)", x, ck, cv)
				}
			case 2:
				for j := range batch {
					batch[j] = x + int64(j)
				}
				out = s.GetBatch(batch[:], out)
				for j, bk := range batch {
					if out[j].OK && out[j].Val != diffVal(bk) {
						t.Errorf("GetBatch(%d) = %d, want %d", bk, out[j].Val, diffVal(bk))
					}
				}
			default:
				prev := int64(minInt64)
				s.SnapshotScan(x, x+256, func(sk, sv int64) bool {
					if sk < x || sk > x+256 || sk < prev || sv != diffVal(sk) {
						t.Errorf("SnapshotScan(%d,%d) yielded (%d,%d) after %d", x, x+256, sk, sv, prev)
						return false
					}
					prev = sk
					return true
				})
			}
			if t.Failed() {
				break
			}
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}

		// Quiescent exact check: the concurrent reads must not have
		// perturbed the writer's outcome.
		m := &refModel{}
		for i, o := range ops {
			if o.del {
				m.delete(o.key)
			} else {
				m.insert(o.key)
			}
			if i%64 == 63 {
				for _, b := range ops[i-63 : i+1] {
					if !b.del {
						m.insert(b.key)
					}
				}
			}
		}
		probes := append(fuzzSeps(s), minInt64, maxInt64, 0, 1<<14)
		checkQueries(t, s, m, probes)
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}
