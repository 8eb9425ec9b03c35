// Command rmaserve exposes an rma.Sharded store over the RESP (Redis)
// protocol so stock Redis clients — and this repo's bench/ harness —
// can drive the engine over a network. The command surface, the pipelined
// batching semantics, and the per-command consistency guarantees are
// documented in SERVING.md.
//
// Usage:
//
//	rmaserve -addr :6380 -shards 8 -async -1 -dur /var/lib/rma -wal
//
// The server stops on SIGINT/SIGTERM or on a client SHUTDOWN command;
// either way it drains connections, flushes the store's deferred
// rebalancing windows, checkpoints (when durability is on), and closes
// the store cleanly.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"rma"
	"rma/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":6380", "listen address (host:port)")
		shards   = flag.Int("shards", 8, "shard count (power of two)")
		async    = flag.Int("async", 0, "background rebalancing workers (0 = off, <0 = one per CPU)")
		durDir   = flag.String("dur", "", "durability directory (empty = in-memory only)")
		useWAL   = flag.Bool("wal", false, "write-ahead log: every acked write is durable before its reply (requires -dur)")
		fsync    = flag.String("fsync", "always", "WAL fsync policy: always, everysec, or never")
		pipeline = flag.Int("pipeline", 0, "max commands coalesced per batch (0 = default 256)")
	)
	flag.Parse()

	var opts []rma.Option
	if *async != 0 {
		opts = append(opts, rma.WithBackgroundRebalancing(*async))
	}
	if *durDir != "" {
		opts = append(opts, rma.WithDurability(*durDir))
	}
	if *useWAL {
		if *durDir == "" {
			fmt.Fprintln(os.Stderr, "rmaserve: -wal requires -dur")
			os.Exit(2)
		}
		// Scheduler thresholds stay at the WALConfig defaults (checkpoint
		// every minute or 64 MiB of live log); the pool from -async drives
		// them, so pair -wal with -async for automatic checkpoints.
		opts = append(opts, rma.WithWAL(rma.WALConfig{Fsync: *fsync}))
	}

	// A durability dir with a published checkpoint is recovered, not
	// re-created (re-creating would discard it); the shard boundaries
	// then come from the manifest and -shards is ignored. An empty or
	// fresh dir starts a new store that checkpoints into it.
	var db *rma.Sharded
	var err error
	if *durDir != "" {
		db, err = rma.OpenSharded(*durDir, opts...)
		switch {
		case err == nil:
			fmt.Fprintf(os.Stderr, "rmaserve: recovered %d keys from %q (-shards ignored)\n",
				db.Size(), *durDir)
		case errors.Is(err, rma.ErrNoCheckpoint):
			db, err = rma.NewSharded(*shards, opts...)
		}
	} else {
		db, err = rma.NewSharded(*shards, opts...)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmaserve:", err)
		os.Exit(1)
	}

	srv := server.New(db, server.Config{MaxPipeline: *pipeline})

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(*addr) }()
	fmt.Fprintf(os.Stderr, "rmaserve: listening on %s (shards=%d async=%d dur=%q wal=%v fsync=%s)\n",
		*addr, *shards, *async, *durDir, *useWAL, *fsync)

	var serveErr error
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "rmaserve: %v, shutting down\n", s)
	case <-srv.Shutdown():
		fmt.Fprintln(os.Stderr, "rmaserve: SHUTDOWN command, shutting down")
	case serveErr = <-done:
		// Listener failed (bad addr, port in use): fall through to
		// close the store, then report.
	}

	srv.Close()
	st := srv.Stats()
	// The final checkpoint is what makes a clean shutdown resumable:
	// Close alone releases the files without persisting post-checkpoint
	// state. A durable server that cannot publish its exit checkpoint
	// must not exit 0.
	if db.Durable() {
		if err := db.Checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "rmaserve: exit checkpoint:", err)
			db.Close()
			os.Exit(1)
		}
	}
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "rmaserve: store close:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "rmaserve: served %d connections, %d commands (%d errors)\n",
		st.Connections, st.Commands, st.Errors)
	if serveErr != nil {
		fmt.Fprintln(os.Stderr, "rmaserve:", serveErr)
		os.Exit(1)
	}
}
