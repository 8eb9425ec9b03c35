package shard

import "rma/internal/core"

// The seqlock read path (CONCURRENCY.md, "The read contract").
//
// Writers bump the shard's version word to odd before mutating and back
// to even after (beginWrite/endWrite, always under the shard mutex). A
// reader pins the vmem epoch gate, captures an even version, reads
// optimistically through the engine's published view, and accepts the
// result only if the version is unchanged — otherwise it discards and
// retries. After seqlockAttempts failed attempts the caller falls back
// to the shard lock, so a write-hot shard serializes its readers behind
// the writer instead of live-locking them.
//
// Under the race detector this formal data race is made literal-race-
// free: readLock/readUnlock are the shard mutex in race builds and
// no-ops otherwise (seqlock_race.go / seqlock_norace.go), keeping the
// control flow identical in both modes.
//
// The //rma:seqlock directive marks each retry loop for lockcheck,
// which verifies the shape (version capture + revalidation inside a
// loop) before blessing the unguarded reads; writes or direct mutex
// use inside these functions stay findings.

// seqlockAttempts bounds the optimism of the lock-free read path: a
// reader that loses the race this many times takes the lock instead.
const seqlockAttempts = 8

// seqFind resolves one point lookup lock-free against shard j. The
// last result reports whether the seqlock path answered; on false the
// caller must fall back to the locked path.
//
//rma:noalloc
//rma:seqlock
func (m *Map) seqFind(j int, key int64) (int64, bool, bool) {
	s := &m.shards[j]
	for attempt := 0; attempt < seqlockAttempts; attempt++ {
		p := s.gate.Enter()
		v1 := s.ver.Load()
		if v1&1 == 0 {
			s.readLock()
			val, ok, valid := s.a.ReadFind(key)
			s.readUnlock()
			if valid && s.ver.Load() == v1 {
				s.gate.Exit(p)
				s.optimisticReads.Add(1)
				return val, ok, true
			}
		}
		s.gate.Exit(p)
		s.readRetries.Add(1)
	}
	s.readFallbacks.Add(1)
	return 0, false, false
}

// seqFindGroup resolves one GetBatch shard group lock-free, filling
// out[i] for keys[i]. All-or-nothing per attempt: a version change or
// torn view discards the whole group (results may not mix epochs —
// the group is atomic per shard like the locked path). Reports whether
// the seqlock path answered.
//
//rma:noalloc
//rma:seqlock
func (m *Map) seqFindGroup(j int, keys []int64, out []core.Lookup) bool {
	s := &m.shards[j]
	for attempt := 0; attempt < seqlockAttempts; attempt++ {
		p := s.gate.Enter()
		v1 := s.ver.Load()
		if v1&1 == 0 {
			s.readLock()
			valid := true
			for i, key := range keys {
				val, ok, g := s.a.ReadFind(key)
				if !g {
					valid = false
					break
				}
				out[i] = core.Lookup{Val: val, OK: ok}
			}
			s.readUnlock()
			if valid && s.ver.Load() == v1 {
				s.gate.Exit(p)
				s.optimisticReads.Add(1)
				return true
			}
		}
		s.gate.Exit(p)
		s.readRetries.Add(1)
	}
	s.readFallbacks.Add(1)
	return false
}

// seqFloor probes shard j's floor lock-free (last result as seqFind).
//
//rma:noalloc
//rma:seqlock
func (m *Map) seqFloor(j int, x int64) (int64, int64, bool, bool) {
	s := &m.shards[j]
	for attempt := 0; attempt < seqlockAttempts; attempt++ {
		p := s.gate.Enter()
		v1 := s.ver.Load()
		if v1&1 == 0 {
			s.readLock()
			k, val, ok, valid := s.a.ReadFloor(x)
			s.readUnlock()
			if valid && s.ver.Load() == v1 {
				s.gate.Exit(p)
				s.optimisticReads.Add(1)
				return k, val, ok, true
			}
		}
		s.gate.Exit(p)
		s.readRetries.Add(1)
	}
	s.readFallbacks.Add(1)
	return 0, 0, false, false
}

// seqCeiling probes shard j's ceiling lock-free.
//
//rma:noalloc
//rma:seqlock
func (m *Map) seqCeiling(j int, x int64) (int64, int64, bool, bool) {
	s := &m.shards[j]
	for attempt := 0; attempt < seqlockAttempts; attempt++ {
		p := s.gate.Enter()
		v1 := s.ver.Load()
		if v1&1 == 0 {
			s.readLock()
			k, val, ok, valid := s.a.ReadCeiling(x)
			s.readUnlock()
			if valid && s.ver.Load() == v1 {
				s.gate.Exit(p)
				s.optimisticReads.Add(1)
				return k, val, ok, true
			}
		}
		s.gate.Exit(p)
		s.readRetries.Add(1)
	}
	s.readFallbacks.Add(1)
	return 0, 0, false, false
}
