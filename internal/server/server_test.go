package server

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"rma"
	"rma/internal/resp"
	"rma/internal/workload"
)

// newTestServer returns a server over a fresh store plus a dialer into
// it (loopback listener). Cleanup closes server then store.
func newTestServer(t *testing.T, cfg Config, opts ...rma.Option) (*Server, func() net.Conn) {
	t.Helper()
	db, err := rma.NewSharded(4, opts...)
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() {
		s.Close()
		db.Close()
	})
	addr := ln.Addr().String()
	return s, func() net.Conn {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
}

// roundTrip writes raw RESP bytes and returns everything the server
// replies until it would block (the connection stays open).
func roundTrip(t *testing.T, c net.Conn, in string, wantLen int) string {
	t.Helper()
	if _, err := io.WriteString(c, in); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<16)
	var out []byte
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(out) < wantLen {
		n, err := c.Read(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			break
		}
	}
	return string(out)
}

// cmdLine encodes one RESP array command from string args.
func cmdLine(args ...string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "*%d\r\n", len(args))
	for _, a := range args {
		fmt.Fprintf(&b, "$%d\r\n%s\r\n", len(a), a)
	}
	return b.String()
}

// TestServeSmoke drives the full command surface over one connection
// with a canned script and asserts the exact reply bytes, including a
// pipelined burst whose replies must come back in command order.
func TestServeSmoke(t *testing.T) {
	_, dial := newTestServer(t, Config{})
	c := dial()
	defer c.Close()

	steps := []struct{ in, want string }{
		{cmdLine("PING"), "+PONG\r\n"},
		{cmdLine("ECHO", "42"), "$2\r\n42\r\n"},
		{cmdLine("GET", "7"), "$-1\r\n"},
		{cmdLine("SET", "7", "700"), "+OK\r\n"},
		{cmdLine("GET", "7"), "$3\r\n700\r\n"},
		{cmdLine("SET", "7", "701"), "+OK\r\n"}, // upsert, not a duplicate
		{cmdLine("GET", "7"), "$3\r\n701\r\n"},
		{cmdLine("LEN"), ":1\r\n"},
		{cmdLine("MSET", "1", "10", "2", "20", "3", "30"), "+OK\r\n"},
		{cmdLine("MGET", "1", "2", "9"), "*3\r\n$2\r\n10\r\n$2\r\n20\r\n$-1\r\n"},
		{cmdLine("EXISTS", "1", "2", "9"), ":2\r\n"},
		{cmdLine("COUNT", "1", "3"), ":3\r\n"},
		{cmdLine("SCAN", "1", "7"), "*9\r\n$1\r\n1\r\n$2\r\n10\r\n$1\r\n2\r\n$2\r\n20\r\n$1\r\n3\r\n$2\r\n30\r\n$1\r\n7\r\n$3\r\n701\r\n$10\r\nconsistent\r\n"},
		{cmdLine("SCAN", "1", "7", "COUNT", "2"), "*5\r\n$1\r\n1\r\n$2\r\n10\r\n$1\r\n2\r\n$2\r\n20\r\n$10\r\nconsistent\r\n"},
		{cmdLine("DEL", "1", "9"), ":1\r\n"},
		{cmdLine("EXISTS", "1"), ":0\r\n"},
		{cmdLine("FLUSH"), "+OK\r\n"},
		// Inline commands parse too.
		{"GET 2\r\n", "$2\r\n20\r\n"},
		// Errors: arity, non-integer, unknown command.
		{cmdLine("GET"), "-ERR wrong number of arguments for 'GET'\r\n"},
		{cmdLine("SET", "x", "1"), "-ERR value is not an integer or out of range\r\n"},
		{cmdLine("NOPE", "1"), "-ERR unknown command 'NOPE'\r\n"},
	}
	for i, st := range steps {
		if got := roundTrip(t, c, st.in, len(st.want)); got != st.want {
			t.Fatalf("step %d: sent %q\n got %q\nwant %q", i, st.in, got, st.want)
		}
	}

	// Pipelined burst: mixed classes in one write; replies must be in
	// order (SET before the GET that reads it, MGET coalesced).
	in := cmdLine("SET", "100", "1") + cmdLine("SET", "101", "2") +
		cmdLine("MGET", "100", "101") + cmdLine("DEL", "100") +
		cmdLine("MGET", "100", "101") + cmdLine("PING")
	want := "+OK\r\n+OK\r\n*2\r\n$1\r\n1\r\n$1\r\n2\r\n:1\r\n*2\r\n$-1\r\n$1\r\n2\r\n+PONG\r\n"
	if got := roundTrip(t, c, in, len(want)); got != want {
		t.Fatalf("pipelined burst:\n got %q\nwant %q", got, want)
	}

	// STATS answers a bulk with the counters.
	if _, err := io.WriteString(c, cmdLine("STATS")); err != nil {
		t.Fatal(err)
	}
	r := resp.NewReader(c)
	rep, err := r.ReadReply()
	if err != nil || rep.Kind != resp.BulkString {
		t.Fatalf("STATS reply: %v kind=%d", err, rep.Kind)
	}
	if !bytes.Contains(rep.Bulk, []byte("size ")) || !bytes.Contains(rep.Bulk, []byte("server_commands ")) {
		t.Fatalf("STATS missing counters: %q", rep.Bulk)
	}

	// QUIT answers then closes.
	if got := roundTrip(t, c, cmdLine("QUIT"), len("+OK\r\n")); got != "+OK\r\n" {
		t.Fatalf("QUIT: %q", got)
	}
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection still open after QUIT")
	}
}

// TestServeProtocolErrorCloses verifies a framing error gets one -ERR
// A key past int64 is an integer error, not a wrapped key: a parser
// that multiplies before checking overflow reads 18446744073709551617
// as 1.
func TestServeRejectsWrappingKey(t *testing.T) {
	_, dial := newTestServer(t, Config{})
	c := dial()
	defer c.Close()
	intErr := "-ERR value is not an integer or out of range\r\n"
	for _, k := range []string{"18446744073709551617", "92233720368547758080"} {
		if got := roundTrip(t, c, cmdLine("SET", k, "5"), len(intErr)); got != intErr {
			t.Fatalf("SET %s 5: got %q, want %q", k, got, intErr)
		}
	}
	for _, k := range []string{"1", "0"} {
		if got := roundTrip(t, c, cmdLine("GET", k), len("$-1\r\n")); got != "$-1\r\n" {
			t.Fatalf("GET %s after rejected SETs: got %q, want a null bulk", k, got)
		}
	}
}

// reply and a hangup (the stream is untrusted past it).
func TestServeProtocolErrorCloses(t *testing.T) {
	_, dial := newTestServer(t, Config{})
	c := dial()
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(c, "*abc\r\n"); err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(c)
	if !bytes.HasPrefix(out, []byte("-ERR protocol error")) {
		t.Fatalf("want protocol error reply then close, got %q", out)
	}
}

// TestServeProtocolErrorFlushesPending sends a valid pipelined burst
// whose last command is malformed, all in one write so no buffer
// refill flushes in between. Every complete command must still get its
// reply, in order, before the one protocol-error reply — a pipelined
// client matches replies to commands by position.
func TestServeProtocolErrorFlushesPending(t *testing.T) {
	_, dial := newTestServer(t, Config{})
	c := dial()
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	burst := cmdLine("SET", "1", "11") +
		cmdLine("SET", "2", "22") +
		cmdLine("MGET", "1", "2") +
		"*abc\r\n"
	if _, err := io.WriteString(c, burst); err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(c)
	want := "+OK\r\n+OK\r\n*2\r\n$2\r\n11\r\n$2\r\n22\r\n"
	if !bytes.HasPrefix(out, []byte(want)) {
		t.Fatalf("want pipelined replies before the error, got %q", out)
	}
	rest := out[len(want):]
	if !bytes.HasPrefix(rest, []byte("-ERR protocol error")) {
		t.Fatalf("want protocol error after pending replies, got %q", rest)
	}
}

// TestServeInflightKillReconnect kills a connection mid-pipeline (bytes
// of a half-written command in the server's buffer, earlier commands
// unflushed) and verifies the server survives: a new connection works
// and sees every complete upsert that preceded the cut.
func TestServeInflightKillReconnect(t *testing.T) {
	s, dial := newTestServer(t, Config{})
	c := dial()
	// Two complete SETs, then a torn command, then hang up without
	// ever reading replies.
	io.WriteString(c, cmdLine("SET", "1", "11")+cmdLine("SET", "2", "22")+"*2\r\n$3\r\nGET\r\n$1")
	time.Sleep(20 * time.Millisecond) // let the server ingest the bytes
	c.Close()

	c2 := dial()
	defer c2.Close()
	want := "*2\r\n$2\r\n11\r\n$2\r\n22\r\n"
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := roundTrip(t, c2, cmdLine("MGET", "1", "2"), len(want)); got == want {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("after reconnect: got %q, want %q", got, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := s.Stats(); st.Connections < 2 {
		t.Fatalf("Connections = %d, want >= 2", st.Connections)
	}
}

// TestServeShutdownCommand verifies SHUTDOWN answers +OK, closes the
// session, and signals the Shutdown channel the process owner drains.
func TestServeShutdownCommand(t *testing.T) {
	s, dial := newTestServer(t, Config{})
	c := dial()
	defer c.Close()
	if got := roundTrip(t, c, cmdLine("SHUTDOWN"), len("+OK\r\n")); got != "+OK\r\n" {
		t.Fatalf("SHUTDOWN: %q", got)
	}
	select {
	case <-s.Shutdown():
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown channel not signalled")
	}
}

// TestServeCloseDrainsConnections verifies Close kicks live sessions
// and returns, and that the store remains usable afterwards (the
// server does not own it).
func TestServeCloseDrainsConnections(t *testing.T) {
	db, err := rma.NewSharded(4)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := New(db, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()

	var conns []net.Conn
	for i := 0; i < 4; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		io.WriteString(c, cmdLine("SET", fmt.Sprint(i), "1"))
	}
	time.Sleep(20 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve after Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	for _, c := range conns {
		c.Close()
	}
	if s.Close() != nil { // idempotent
		t.Fatal("second Close errored")
	}
	if err := db.Validate(); err != nil {
		t.Fatalf("store invalid after server close: %v", err)
	}
}

// TestServeConnPipe runs a session over net.Pipe — the in-process,
// no-sockets harness CI determinism leans on.
func TestServeConnPipe(t *testing.T) {
	db, err := rma.NewSharded(2)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := New(db, Config{})
	defer s.Close()
	cli, srv := net.Pipe()
	done := make(chan struct{})
	go func() { s.ServeConn(srv); close(done) }()

	w := resp.NewWriter(cli)
	r := resp.NewReader(cli)
	w.Command("SET", 5, 50)
	w.Command("GET", 5)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := r.ReadReply()
	if err != nil || rep.Kind != resp.SimpleString {
		t.Fatalf("SET over pipe: %v %+v", err, rep)
	}
	rep, err = r.ReadReply()
	if err != nil || rep.Kind != resp.BulkString || string(rep.Bulk) != "50" {
		t.Fatalf("GET over pipe: %v %+v", err, rep)
	}
	cli.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn did not return after peer close")
	}
}

// refStore is the differential test's reference: a plain map guarded by
// a mutex (named refMu: the lockcheck contract applies to engine
// structs, not test scaffolding).
type refStore struct {
	refMu sync.Mutex
	m     map[int64]int64
}

// diffClient drives one connection with a random op mix, checking every
// reply against the reference. With checkValues=false (concurrent
// torture, interleavings unknowable) replies are only drained and
// checked for protocol health, not content.
func diffClient(t *testing.T, c net.Conn, ref *refStore, seed uint64, ops int, keyRange int64, checkValues bool) {
	t.Helper()
	rng := workload.NewRNG(seed)
	w := resp.NewWriter(c)
	r := resp.NewReader(c)

	expect := func(want resp.Reply, wantBulk string) {
		t.Helper()
		if err := w.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		rep, err := r.ReadReply()
		if err != nil {
			t.Fatalf("reply: %v", err)
		}
		if !checkValues {
			if rep.Kind == resp.Array {
				for i := 0; i < rep.N; i++ {
					if _, err := r.ReadReply(); err != nil {
						t.Fatalf("array element: %v", err)
					}
				}
			}
			if rep.Kind == resp.ErrorString {
				t.Fatalf("error reply: %s", rep.Bulk)
			}
			return
		}
		if rep.Kind != want.Kind {
			t.Fatalf("reply kind %d, want %d (bulk %q)", rep.Kind, want.Kind, rep.Bulk)
		}
		switch want.Kind {
		case resp.Integer:
			if rep.Int != want.Int {
				t.Fatalf("reply %d, want %d", rep.Int, want.Int)
			}
		case resp.BulkString:
			if string(rep.Bulk) != wantBulk {
				t.Fatalf("reply %q, want %q", rep.Bulk, wantBulk)
			}
		}
	}

	for i := 0; i < ops; i++ {
		k := int64(rng.Uint64n(uint64(keyRange)))
		switch rng.Uint64n(10) {
		case 0, 1, 2: // SET
			v := int64(rng.Uint64n(1 << 30))
			w.Command("SET", k, v)
			ref.refMu.Lock()
			ref.m[k] = v
			ref.refMu.Unlock()
			expect(resp.Reply{Kind: resp.SimpleString}, "")
		case 3: // DEL
			w.Command("DEL", k)
			ref.refMu.Lock()
			_, had := ref.m[k]
			delete(ref.m, k)
			ref.refMu.Unlock()
			want := int64(0)
			if had {
				want = 1
			}
			expect(resp.Reply{Kind: resp.Integer, Int: want}, "")
		case 4, 5, 6, 7: // GET
			w.Command("GET", k)
			ref.refMu.Lock()
			v, ok := ref.m[k]
			ref.refMu.Unlock()
			if ok {
				expect(resp.Reply{Kind: resp.BulkString}, fmt.Sprint(v))
			} else {
				expect(resp.Reply{Kind: resp.NullBulk}, "")
			}
		case 8: // EXISTS
			w.Command("EXISTS", k)
			ref.refMu.Lock()
			_, ok := ref.m[k]
			ref.refMu.Unlock()
			want := int64(0)
			if ok {
				want = 1
			}
			expect(resp.Reply{Kind: resp.Integer, Int: want}, "")
		default: // SCAN, verified against the reference's sorted view
			lo := k
			hi := k + 64
			w.Command("SCAN", lo, hi)
			if err := w.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
			var got []int64
			rep, err := r.ReadReply()
			if err != nil || rep.Kind != resp.Array {
				t.Fatalf("SCAN reply: %v %+v", err, rep)
			}
			for j := 0; j < rep.N; j++ {
				el, err := r.ReadReply()
				if err != nil {
					t.Fatalf("SCAN element: %v", err)
				}
				if j < rep.N-1 { // last element is the verdict
					n, ok := resp.ParseInt(el.Bulk)
					if !ok {
						t.Fatalf("SCAN element %q not an int", el.Bulk)
					}
					got = append(got, n)
				}
			}
			if !checkValues {
				continue
			}
			ref.refMu.Lock()
			var want []int64
			for rk, rv := range ref.m {
				if rk >= lo && rk <= hi {
					want = append(want, rk, rv)
				}
			}
			ref.refMu.Unlock()
			sortPairsByKey(want)
			if len(got) != len(want) {
				t.Fatalf("SCAN [%d,%d]: %d elements, want %d", lo, hi, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("SCAN [%d,%d] element %d: %d, want %d", lo, hi, j, got[j], want[j])
				}
			}
		}
	}
}

// sortPairsByKey sorts a flat [k,v,k,v,...] slice by key.
func sortPairsByKey(kv []int64) {
	for i := 2; i < len(kv); i += 2 {
		for j := i; j > 0 && kv[j-2] > kv[j]; j -= 2 {
			kv[j-2], kv[j] = kv[j], kv[j-2]
			kv[j-1], kv[j+1] = kv[j+1], kv[j-1]
		}
	}
}

// TestServeDifferential drives a random op mix through a live
// connection and checks every reply against an in-process reference
// map — the end-to-end correctness pin for the whole stack (parser,
// coalescer, batched engine surfaces, reply encoder).
func TestServeDifferential(t *testing.T) {
	_, dial := newTestServer(t, Config{})
	c := dial()
	defer c.Close()
	ref := &refStore{m: make(map[int64]int64)}
	ops := 20000
	if testing.Short() {
		ops = 4000
	}
	diffClient(t, c, ref, 1234, ops, 512, true)
}

// TestServeDifferentialTorture runs concurrent clients against one
// server — each on a private key stripe it checks differentially, plus
// cross-stripe scanners — under the race detector in CI's -race lane.
func TestServeDifferentialTorture(t *testing.T) {
	_, dial := newTestServer(t, Config{}, rma.WithBackgroundRebalancing(2))
	const clients = 4
	ops := 4000
	if testing.Short() {
		ops = 800
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := dial()
			defer c.Close()
			// Private stripe => single-writer => exact differential
			// checking stays valid under concurrency.
			ref := &refStore{m: make(map[int64]int64)}
			stripe := int64(id) << 32
			rng := workload.NewRNG(uint64(id)*77 + 1)
			w := resp.NewWriter(c)
			r := resp.NewReader(c)
			for j := 0; j < ops; j++ {
				k := stripe + int64(rng.Uint64n(256))
				if rng.Uint64n(2) == 0 {
					v := int64(rng.Uint64n(1 << 20))
					w.Command("SET", k, v)
					ref.m[k] = v
					w.Flush()
					rep, err := r.ReadReply()
					if err != nil || rep.Kind != resp.SimpleString {
						t.Errorf("client %d SET: %v %+v", id, err, rep)
						return
					}
				} else {
					w.Command("GET", k)
					w.Flush()
					rep, err := r.ReadReply()
					if err != nil {
						t.Errorf("client %d GET: %v", id, err)
						return
					}
					if v, ok := ref.m[k]; ok {
						if rep.Kind != resp.BulkString || string(rep.Bulk) != fmt.Sprint(v) {
							t.Errorf("client %d GET %d: %+v want %d", id, k, rep, v)
							return
						}
					} else if rep.Kind != resp.NullBulk {
						t.Errorf("client %d GET %d: %+v want null", id, k, rep)
						return
					}
				}
			}
		}(i)
	}
	// One scanner racing the writers end-to-end: replies must stay
	// protocol-clean and scans key-ordered even when cuts are torn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := dial()
		defer c.Close()
		w := resp.NewWriter(c)
		r := resp.NewReader(c)
		for j := 0; j < ops/4; j++ {
			w.Command("SCAN", 0, int64(clients)<<32)
			w.Flush()
			rep, err := r.ReadReply()
			if err != nil || rep.Kind != resp.Array {
				t.Errorf("scanner: %v %+v", err, rep)
				return
			}
			prev := int64(-1 << 62)
			for e := 0; e < rep.N; e++ {
				el, err := r.ReadReply()
				if err != nil {
					t.Errorf("scanner element: %v", err)
					return
				}
				if e < rep.N-1 && e%2 == 0 {
					k, _ := resp.ParseInt(el.Bulk)
					if k < prev {
						t.Errorf("scan out of order: %d after %d", k, prev)
						return
					}
					prev = k
				}
			}
		}
	}()
	wg.Wait()
}

// TestServeCheckpointLastsave drives the operator recovery-point
// surface: CHECKPOINT on a non-durable store errors; on a durable
// store without a maintenance pool it publishes synchronously (+OK);
// with a pool it starts a background round. LASTSAVE reports the
// published round count and WAL LSN floor.
func TestServeCheckpointLastsave(t *testing.T) {
	// Non-durable: exact error, LASTSAVE all-zero.
	_, dial := newTestServer(t, Config{})
	c := dial()
	steps := []struct{ in, want string }{
		{cmdLine("CHECKPOINT"), "-ERR store is not durable\r\n"},
		{cmdLine("LASTSAVE"), "*2\r\n:0\r\n:0\r\n"},
		{cmdLine("CHECKPOINT", "now"), "-ERR wrong number of arguments for 'CHECKPOINT'\r\n"},
	}
	for i, st := range steps {
		if got := roundTrip(t, c, st.in, len(st.want)); got != st.want {
			t.Fatalf("step %d: sent %q\n got %q\nwant %q", i, st.in, got, st.want)
		}
	}
	c.Close()

	// Durable + WAL, no pool: CHECKPOINT publishes synchronously and
	// LASTSAVE advances past it.
	_, dial = newTestServer(t, Config{},
		rma.WithDurability(t.TempDir()), rma.WithWAL(rma.WALConfig{
			CheckpointInterval: -1, CheckpointWALBytes: -1,
		}))
	c = dial()
	in := cmdLine("MSET", "1", "10", "2", "20") + cmdLine("CHECKPOINT")
	want := "+OK\r\n+OK\r\n"
	if got := roundTrip(t, c, in, len(want)); got != want {
		t.Fatalf("sync checkpoint: got %q want %q", got, want)
	}
	if _, err := io.WriteString(c, cmdLine("LASTSAVE")); err != nil {
		t.Fatal(err)
	}
	r := resp.NewReader(c)
	rep, err := r.ReadReply()
	if err != nil || rep.Kind != resp.Array || rep.N != 2 {
		t.Fatalf("LASTSAVE reply: %v %+v", err, rep)
	}
	roundsRep, err1 := r.ReadReply()
	lsnRep, err2 := r.ReadReply()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if roundsRep.Int != 1 {
		t.Fatalf("LASTSAVE rounds = %d, want 1", roundsRep.Int)
	}
	if lsnRep.Int <= 0 {
		t.Fatalf("LASTSAVE lsn = %d, want > 0 after logged writes", lsnRep.Int)
	}
	c.Close()

	// Durable + pool: CHECKPOINT goes async.
	_, dial = newTestServer(t, Config{},
		rma.WithDurability(t.TempDir()), rma.WithBackgroundRebalancing(1),
		rma.WithWAL(rma.WALConfig{CheckpointInterval: -1, CheckpointWALBytes: -1}))
	c = dial()
	defer c.Close()
	in = cmdLine("SET", "5", "50") + cmdLine("CHECKPOINT")
	want = "+OK\r\n+Background checkpoint started\r\n"
	if got := roundTrip(t, c, in, len(want)); got != want {
		t.Fatalf("async checkpoint: got %q want %q", got, want)
	}
}
