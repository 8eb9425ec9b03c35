package main

import (
	"hash/fnv"

	"rma/internal/workload"
)

// Key space. Stores shard the full int64 domain uniformly, so keys use
// all 64 bits. Loaded key i is a bijective scramble of i (distinct,
// uniform over the domain). A fresh key is region<<44|counter with the
// sign bit flipped so unsigned order is int64 order: region 0 sits at
// the bottom of the domain, and an unscrambled Zipf over regions hammers
// a few neighbouring spots — the paper's skewed-insert pattern — which
// on a sharded store is also one shard hotter than the rest.
const (
	regionBits  = 20
	counterBits = 64 - regionBits
)

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func loadedKey(seed, i uint64) int64 { return int64(mix64(i + seed*0x9e3779b97f4a7c15)) }

func freshKey(region, counter uint64) int64 {
	return int64((region<<counterBits | counter&(1<<counterBits-1)) ^ 1<<63)
}

// request is one closed-loop request, filled by stream.next. The slices
// are reused from request to request.
type request struct {
	class class
	id    uint64
	keys  []int64 // read: probes; write: updates then fresh keys; scan: lower bounds
	dels  []int64 // write/del: keys to delete, oldest first
}

// ops is the number of store operations (commands, calls) the request makes.
func (r *request) ops() int { return len(r.keys) + len(r.dels) }

// delsPerCmd is how many of the request's deletes travel in one DEL
// command (one ApplyBatch, one log record group): all of them with
// bulkDel, else one.
func (r *request) delsPerCmd(spec *workloadSpec) int {
	if spec.bulkDel {
		return len(r.dels)
	}
	return 1
}

// cmds is the number of RESP commands the request is on the wire.
func (r *request) cmds(spec *workloadSpec) int {
	if len(r.dels) == 0 {
		return len(r.keys)
	}
	return len(r.keys) + len(r.dels)/r.delsPerCmd(spec)
}

// stream generates one connection's requests. Two streams with the same
// (spec, seed, id, of, loaded) produce identical requests; the program
// under test sees nothing else of the workload.
type stream struct {
	spec   *workloadSpec
	seed   uint64
	id, of uint64
	loaded uint64

	rng    *workload.RNG
	zipf   *workload.Zipf // scrambled index picker (zipfReads)
	region *workload.Zipf // unscrambled region picker for fresh keys
	fresh  uint64         // fresh keys made so far by this stream

	fifo       []int64 // ring of live fresh keys, oldest at head
	head, live int

	// cycle is the spec's pattern in this cycle's order: every cycle runs
	// the same classes, reshuffled, so two streams never stay in step and
	// each slice averages over how their requests overlap.
	cycle  []class
	step   int
	nextID uint64
}

func newStream(spec *workloadSpec, seed uint64, id, loaded int) *stream {
	s := &stream{
		spec: spec, seed: seed, id: uint64(id), of: uint64(spec.conns), loaded: uint64(loaded),
		rng:    workload.NewRNG(mix64(seed) ^ uint64(id+1)*0xbf58476d1ce4e5b9),
		region: workload.NewZipf(mix64(seed+1)+uint64(id), 1.0, 1<<regionBits, false),
	}
	if spec.zipfReads {
		s.zipf = workload.NewZipf(mix64(seed+2)+uint64(id), 1.0, uint64(loaded), true)
	}
	// The ring holds the prime plus the largest excursion one pattern
	// cycle can add before its deletes run.
	s.fifo = make([]int64, spec.fifoPrime()+len(spec.pattern)*spec.writeFresh)
	s.cycle = append([]class(nil), spec.pattern...)
	return s
}

func (s *stream) freshKey() int64 {
	k := freshKey(s.region.NextRank()-1, s.fresh*s.of+s.id)
	s.fresh++
	return k
}

func (s *stream) push(k int64) {
	s.fifo[(s.head+s.live)%len(s.fifo)] = k
	s.live++
}

func (s *stream) pop() int64 {
	k := s.fifo[s.head]
	s.head = (s.head + 1) % len(s.fifo)
	s.live--
	return k
}

// prime returns the fresh keys set-up must insert before the first
// request, and queues them for the FIFO deletes.
func (s *stream) prime() []int64 {
	out := make([]int64, s.spec.fifoPrime())
	for i := range out {
		out[i] = s.freshKey()
		s.push(out[i])
	}
	return out
}

func (s *stream) loadedPick() int64 {
	if s.zipf != nil {
		return loadedKey(s.seed, uint64(s.zipf.Next()))
	}
	return loadedKey(s.seed, s.rng.Uint64n(s.loaded))
}

// next fills req with the stream's next request.
func (s *stream) next(req *request) {
	w := s.spec
	if s.step == 0 {
		for i := len(s.cycle) - 1; i > 0; i-- {
			j := s.rng.Uint64n(uint64(i + 1))
			s.cycle[i], s.cycle[j] = s.cycle[j], s.cycle[i]
		}
	}
	req.class = s.cycle[s.step]
	s.step = (s.step + 1) % len(s.cycle)
	req.id = s.nextID
	s.nextID++
	req.keys, req.dels = req.keys[:0], req.dels[:0]
	switch req.class {
	case clsRead:
		for i := 0; i < w.readKeys; i++ {
			req.keys = append(req.keys, s.loadedPick())
		}
	case clsWrite:
		// Deletes are drawn before the fresh keys are queued: they are
		// the keys written fifoBursts write requests ago.
		for i := 0; i < w.writeDels; i++ {
			req.dels = append(req.dels, s.pop())
		}
		for i := 0; i < w.writeUpdates; i++ {
			req.keys = append(req.keys, loadedKey(s.seed, s.rng.Uint64n(s.loaded)))
		}
		for i := 0; i < w.writeFresh; i++ {
			k := s.freshKey()
			s.push(k)
			req.keys = append(req.keys, k)
		}
	case clsDel:
		for i := 0; i < w.delKeys; i++ {
			req.dels = append(req.dels, s.pop())
		}
	case clsScan:
		// Lower bounds stay clear of the top of the domain (2%, or the
		// stretch holding 4*scanCount loaded keys if that is wider), so a
		// bounded range fits and an unbounded one always finds scanCount
		// elements.
		top := max(2, min(4*scanCount*100/s.loaded+1, 50))
		for i := 0; i < w.scans; i++ {
			lo := s.rng.Uint64n((100 - top) * domainPercent)
			req.keys = append(req.keys, int64(lo^1<<63))
		}
	}
}

// streamHash digests the first n requests of every stream of a workload:
// the identity of an op stream, used by the tests and printed in the
// environment stamp.
func streamHash(spec *workloadSpec, seed uint64, loaded, n int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	var req request
	for id := 0; id < spec.conns; id++ {
		s := newStream(spec, seed, id, loaded)
		for _, k := range s.prime() {
			put(uint64(k))
		}
		for i := 0; i < n; i++ {
			s.next(&req)
			put(uint64(req.class))
			for _, k := range req.keys {
				put(uint64(k))
			}
			for _, k := range req.dels {
				put(uint64(k))
			}
		}
	}
	return h.Sum64()
}
