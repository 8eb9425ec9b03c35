package resp

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"strconv"
	"testing"
	"testing/iotest"
)

// FuzzRESPParse throws arbitrary bytes at both parser entry points.
// Properties under fuzz:
//
//   - no panic, no hang: every input either parses or errors out;
//   - every parsed command respects the protocol limits (arg count,
//     bulk size) — an input that smuggles an oversized command past the
//     limit checks is a finding;
//   - commands that parse re-encode (Writer.Command-style) to bytes
//     that parse back to the same arguments — the round trip the
//     server and the bench client rely on;
//   - after any error the reader stays inert (subsequent reads error
//     too or hit EOF, never panic);
//   - the in-place bulk scanner and the checked path agree: the stream
//     fed whole and fed one byte per Read parse to the same commands,
//     replies and errors.
func FuzzRESPParse(f *testing.F) {
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$1\r\n7\r\n$2\r\n14\r\n"))
	f.Add([]byte("*1\r\n$4\r\nPING\r\n*2\r\n$3\r\nGET\r\n$1\r\n5\r\n"))
	f.Add([]byte("GET 7\r\nSET 1 2\r\n"))
	f.Add([]byte("*2\r\n$3\r\nDEL\r\n$20\r\n-9223372036854775808\r\n"))
	f.Add([]byte("+OK\r\n:42\r\n$-1\r\n*2\r\n$1\r\na\r\n$1\r\nb\r\n"))
	f.Add([]byte("*-1\r\n"))
	f.Add([]byte("$\r\n\r\n*\r\n"))
	f.Add([]byte("*65537\r\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Commands: parse the whole stream, re-encode every command,
		// reparse, compare.
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 1024; i++ {
			cmd, err := r.ReadCommand()
			if err != nil {
				// After any error the stream is done for the server;
				// one more read must not panic.
				r.ReadCommand()
				break
			}
			if len(cmd) > MaxArgs {
				t.Fatalf("parsed command with %d args > MaxArgs", len(cmd))
			}
			total := 0
			for _, a := range cmd {
				if len(a) > MaxBulk {
					t.Fatalf("parsed arg of %d bytes > MaxBulk", len(a))
				}
				total += len(a)
			}
			if total > len(data) {
				t.Fatalf("args total %d bytes from a %d-byte input", total, len(data))
			}
			roundTrip(t, cmd)
		}

		// Replies: same stream through the reply parser.
		r = NewReader(bytes.NewReader(data))
		for i := 0; i < 1024; i++ {
			rep, err := r.ReadReply()
			if err != nil {
				r.ReadReply()
				break
			}
			if rep.Kind == Array && (rep.N < 0 || rep.N > MaxArgs) {
				t.Fatalf("array header N=%d out of range", rep.N)
			}
			if len(rep.Bulk) > MaxBulk {
				t.Fatalf("reply bulk of %d bytes > MaxBulk", len(rep.Bulk))
			}
		}

		for _, replies := range []bool{false, true} {
			fast := transcript(bytes.NewReader(data), replies)
			if slow := transcript(iotest.OneByteReader(bytes.NewReader(data)), replies); slow != fast {
				t.Fatalf("replies=%v: fed whole %q, one byte per Read %q", replies, fast, slow)
			}
		}
	})
}

// roundTrip re-encodes cmd as a RESP array and verifies it parses back
// identically.
func roundTrip(t *testing.T, cmd [][]byte) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.ArrayHeader(len(cmd))
	for _, a := range cmd {
		w.BulkBytes(a)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// cmd aliases the source reader's arena; copy before reparsing.
	want := make([][]byte, len(cmd))
	for i, a := range cmd {
		want[i] = append([]byte(nil), a...)
	}
	r := NewReader(&buf)
	got, err := r.ReadCommand()
	if err != nil {
		// A zero-arg command (*0) parses to an empty slice and
		// re-encodes to *0; ReadCommand loops past it to EOF.
		if len(want) == 0 && err == io.EOF {
			return
		}
		t.Fatalf("re-encoded command failed to parse: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("round trip arg count %d != %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("round trip arg %d: %q != %q", i, got[i], want[i])
		}
	}
}

// FuzzIntCodec pins the integer codec to strconv, its specification:
//
//   - ParseInt accepts exactly what strconv.ParseInt(s, 10, 64) accepts,
//     with the same value, on arbitrary bytes;
//   - BulkInt, Int and ArrayHeader emit exactly the bytes a
//     strconv-built reference spells, both into the usual 64 KiB
//     buffer and into one so small that every emit meets a flush.
func FuzzIntCodec(f *testing.F) {
	for _, s := range []string{
		"-9223372036854775808", "9223372036854775807", "9223372036854775808",
		"-9223372036854775809", "99999999", "100000000", "100000001",
		"10000000000000000", "1234567890123456789", "12345678901234567890",
		"18446744073709551617", "92233720368547758080", "5741663663022785017506",
		"00000000000000000000042", "-0000000000000000000009223372036854775808",
		"0", "-0", "+0", "-", "+", "", "+-1", "12345/78", "1234567:", "1234+678",
		"/0000000", "::::::::", "1234567890123456/89",
	} {
		v, _ := strconv.ParseInt(s, 10, 64)
		f.Add([]byte(s), v)
	}
	for _, n := range []int64{math.MinInt64, math.MaxInt64, 1e8 - 1, 1e8, 1e8 + 1, 1e16, -1e16, 9, 10, 99, 100} {
		f.Add([]byte(strconv.FormatInt(n, 10)), n)
	}

	f.Fuzz(func(t *testing.T, data []byte, n int64) {
		got, ok := ParseInt(data)
		want, err := strconv.ParseInt(string(data), 10, 64)
		if ok != (err == nil) || ok && got != want {
			t.Fatalf("ParseInt(%q) = %d,%v; strconv says %d,%v", data, got, ok, want, err)
		}

		s := strconv.FormatInt(n, 10)
		ref := "$" + strconv.Itoa(len(s)) + "\r\n" + s + "\r\n:" + s + "\r\n*" + strconv.Itoa(int(n)) + "\r\n"
		for _, size := range []int{64 << 10, 40} {
			var buf bytes.Buffer
			w := &Writer{bw: bufio.NewWriterSize(&buf, size)}
			w.BulkInt(n)
			w.Int(n)
			w.ArrayHeader(int(n))
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if buf.String() != ref {
				t.Fatalf("emit of %d with a %d-byte buffer:\n got %q\nwant %q", n, size, buf.String(), ref)
			}
		}
	})
}
