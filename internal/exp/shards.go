package exp

import (
	"runtime"
	"sync"

	"rma/internal/core"
	"rma/internal/shard"
	"rma/internal/workload"
)

// Shards measures the concurrent serving layer: aggregate Put
// throughput across a (goroutines x shard count) matrix, the batched
// ingestion path, concurrent point lookups, and the merged cross-shard
// scan. Series are named "<op>-g<goroutines>-s<shards>"; ns/op is
// aggregate wall time over all operations of all goroutines, so on a
// multicore machine it falls as shards remove lock contention, while on
// a single hardware thread (GOMAXPROCS=1) it mostly shows the residual
// cost of scheduling and lock handoff. The recorded NumCPU accompanies
// every BENCH_hotpath.json snapshot via its goos/goarch header fields;
// interpret scaling accordingly.
func Shards(p Params) []HotpathResult {
	maxShards := p.ShardMax
	if maxShards <= 0 {
		maxShards = 8
	}
	p.printf("## shards: concurrent serving layer, N=%d, GOMAXPROCS=%d\n", p.N, runtime.GOMAXPROCS(0))
	p.printf("# series\tlayout\trebal\tns/op\tallocs/op\telt.copies\tpage.swaps\n")

	var results []HotpathResult
	// proto names what the measured operations synchronize on: the
	// shard mutex (writes, scans) or the seqlock (point reads).
	record := func(series, proto string, ops int, ns, allocs float64, st core.Stats) {
		r := HotpathResult{
			Series: series, Layout: "sharded", Rebalance: proto,
			Ops: ops, NsPerOp: ns, AllocsPerOp: allocs,
			ElementCopies: st.ElementCopies, PageSwaps: st.PageSwaps,
		}
		results = append(results, r)
		p.printf("%s\t%s\t%s\t%.1f\t%.3f\t%d\t%d\n",
			series, r.Layout, r.Rebalance, ns, allocs, st.ElementCopies, st.PageSwaps)
	}

	goroutineCounts := []int{1, 2, 4, 8}
	shardCounts := []int{1, 2, 4, 8}

	for _, k := range shardCounts {
		if k > maxShards {
			continue
		}
		// Point puts at every goroutine count.
		for _, g := range goroutineCounts {
			m := newShardMap(p, k)
			ns, allocs := measure(p.N, func() {
				putConcurrent(m, p, g)
			})
			record(sprintf("put-g%d-s%d", g, k), "mutex", p.N, ns, allocs, m.Stats())
		}

		// Batched puts (ApplyBatch: per-shard grouping + bulk runs).
		m := newShardMap(p, k)
		ns, allocs := measure(p.N, func() {
			batchPutConcurrent(m, p, 8, 1024)
		})
		record(sprintf("batchput-g8-s%d", k), "mutex", p.N, ns, allocs, m.Stats())

		// Concurrent point lookups against the batch-loaded map.
		nGets := p.N / 2
		base := m.Stats()
		ns, allocs = measure(nGets, func() {
			getConcurrent(m, p, 8, nGets)
		})
		st := m.Stats()
		st.ElementCopies -= base.ElementCopies
		st.PageSwaps -= base.PageSwaps
		record(sprintf("get-g8-s%d", k), "seqlock", nGets, ns, allocs, st)

		// Merged cross-shard scan (single caller, locks one shard at a
		// time).
		base = m.Stats()
		var scanned int
		ns, allocs = measure(1, func() {
			for r := 0; r < 3; r++ {
				c, s := m.SumAll()
				sink += s
				scanned += c
			}
		})
		if scanned > 0 {
			ns /= float64(scanned)
			allocs /= float64(scanned)
		}
		st = m.Stats()
		st.ElementCopies -= base.ElementCopies
		st.PageSwaps -= base.PageSwaps
		record(sprintf("scan-merge-s%d", k), "mutex", scanned, ns, allocs, st)

		// Racing reads: 8 readers against 2 churning writers on the same
		// loaded map shape — the contention corner the seqlock read
		// route exists for. The row carries the retry/fallback
		// accounting.
		m = newShardMap(p, k)
		batchPutConcurrent(m, p, 8, 1024)
		base = m.Stats()
		stop := make(chan struct{})
		var churn sync.WaitGroup
		for w := 0; w < 2; w++ {
			churn.Add(1)
			go func(w int) {
				defer churn.Done()
				gen := workload.NewUniform(p.Seed+uint64(w)*977+7, 0)
				for {
					select {
					case <-stop:
						return
					default:
					}
					k := gen.Next()
					if err := m.Insert(k, workload.ValueFor(k)); err != nil {
						panic(err)
					}
					if _, err := m.Delete(k); err != nil {
						panic(err)
					}
				}
			}(w)
		}
		ns, allocs = measure(nGets, func() {
			getConcurrent(m, p, 8, nGets)
		})
		close(stop)
		churn.Wait()
		st = m.Stats()
		st.ElementCopies -= base.ElementCopies
		st.PageSwaps -= base.PageSwaps
		r := HotpathResult{
			Series: sprintf("getrace-g8-s%d", k), Layout: "sharded", Rebalance: "seqlock",
			Ops: nGets, NsPerOp: ns, AllocsPerOp: allocs,
			ElementCopies: st.ElementCopies, PageSwaps: st.PageSwaps,
			LockFreeReads: st.LockFreeReads, ReadRetries: st.ReadRetries,
			ReadFallbacks: st.ReadFallbacks,
		}
		results = append(results, r)
		p.printf("%s\t%s\t%s\t%.1f\t%.3f\t%d\t%d\tlf=%d retry=%d fb=%d\n",
			r.Series, r.Layout, r.Rebalance, ns, allocs, st.ElementCopies,
			st.PageSwaps, st.LockFreeReads, st.ReadRetries, st.ReadFallbacks)
	}
	return results
}

// newShardMap builds the serving layer over k default-configuration
// RMAs, learning the shard boundaries from a sample of the workload's
// own key distribution (uniform separators over the full int64 domain
// would leave the shards below zero empty — the workload draws
// non-negative 63-bit keys).
func newShardMap(p Params, k int) *shard.Map {
	sample := workload.Keys(workload.NewUniform(p.Seed+1009, 0), 4096)
	m, err := shard.New(core.DefaultConfig(), shard.QuantileSeps(k, sample))
	if err != nil {
		panic(err)
	}
	return m
}

// putConcurrent inserts p.N uniform keys split across g goroutines.
func putConcurrent(m *shard.Map, p Params, g int) {
	var wg sync.WaitGroup
	per := p.N / g
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gen := workload.NewUniform(p.Seed+uint64(i)*31, 0)
			n := per
			if i == g-1 {
				n = p.N - per*(g-1)
			}
			for j := 0; j < n; j++ {
				k := gen.Next()
				if err := m.Insert(k, workload.ValueFor(k)); err != nil {
					panic(err)
				}
			}
		}(i)
	}
	wg.Wait()
}

// batchPutConcurrent inserts p.N uniform keys split across g
// goroutines, each submitting ApplyBatch batches of the given size.
func batchPutConcurrent(m *shard.Map, p Params, g, batch int) {
	var wg sync.WaitGroup
	per := p.N / g
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gen := workload.NewUniform(p.Seed+uint64(i)*31, 0)
			n := per
			if i == g-1 {
				n = p.N - per*(g-1)
			}
			ops := make([]shard.Op, 0, batch)
			for j := 0; j < n; j++ {
				k := gen.Next()
				ops = append(ops, shard.Op{Kind: shard.OpPut, Key: k, Val: workload.ValueFor(k)})
				if len(ops) == batch || j == n-1 {
					if _, err := m.ApplyBatch(ops); err != nil {
						panic(err)
					}
					ops = ops[:0]
				}
			}
		}(i)
	}
	wg.Wait()
}

// getConcurrent issues total random lookups of stored keys split across
// g goroutines.
func getConcurrent(m *shard.Map, p Params, g, total int) {
	var wg sync.WaitGroup
	per := total / g
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := per
			if i == g-1 {
				n = total - per*(g-1)
			}
			// Regenerate the same uniform streams the loader used, so
			// lookups hit stored keys.
			gen := workload.NewUniform(p.Seed+uint64(i)*31, 0)
			keys := workload.Keys(gen, per+1)
			rng := workload.NewRNG(p.Seed + uint64(i) + 99)
			var local int64
			for j := 0; j < n; j++ {
				v, _ := m.Find(keys[rng.Uint64n(uint64(len(keys)))])
				local += v
			}
			atomicSinkAdd(local)
		}(i)
	}
	wg.Wait()
}

// atomicSinkAdd folds goroutine-local sums into the shared sink without
// a data race.
var sinkMu sync.Mutex

func atomicSinkAdd(v int64) {
	sinkMu.Lock()
	sink += v
	sinkMu.Unlock()
}
