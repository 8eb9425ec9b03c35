package resp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"
)

func readOne(t *testing.T, in string) [][]byte {
	t.Helper()
	r := NewReader(strings.NewReader(in))
	cmd, err := r.ReadCommand()
	if err != nil {
		t.Fatalf("ReadCommand(%q): %v", in, err)
	}
	return cmd
}

func TestReadCommandArray(t *testing.T) {
	cmd := readOne(t, "*3\r\n$3\r\nSET\r\n$2\r\n42\r\n$4\r\n-100\r\n")
	want := []string{"SET", "42", "-100"}
	if len(cmd) != len(want) {
		t.Fatalf("got %d args, want %d", len(cmd), len(want))
	}
	for i, w := range want {
		if string(cmd[i]) != w {
			t.Fatalf("arg %d = %q, want %q", i, cmd[i], w)
		}
	}
}

func TestReadCommandInline(t *testing.T) {
	r := NewReader(strings.NewReader("\r\nPING\r\nGET  7\r\n"))
	cmd, err := r.ReadCommand()
	if err != nil || string(cmd[0]) != "PING" || len(cmd) != 1 {
		t.Fatalf("inline 1: %v %q", err, cmd)
	}
	cmd, err = r.ReadCommand()
	if err != nil || len(cmd) != 2 || string(cmd[0]) != "GET" || string(cmd[1]) != "7" {
		t.Fatalf("inline 2: %v %q", err, cmd)
	}
	if _, err = r.ReadCommand(); err != io.EOF {
		t.Fatalf("want io.EOF at clean boundary, got %v", err)
	}
}

func TestReadCommandPipelined(t *testing.T) {
	r := NewReader(strings.NewReader("*1\r\n$4\r\nPING\r\n*2\r\n$3\r\nGET\r\n$1\r\n5\r\n"))
	if cmd, err := r.ReadCommand(); err != nil || string(cmd[0]) != "PING" {
		t.Fatalf("first: %v %q", err, cmd)
	}
	if cmd, err := r.ReadCommand(); err != nil || string(cmd[1]) != "5" {
		t.Fatalf("second: %v %q", err, cmd)
	}
}

func TestTruncatedCommandIsUnexpectedEOF(t *testing.T) {
	for _, in := range []string{"*2\r\n$3\r\nGET\r\n", "*1\r\n$3\r\nGE", "*1\r\n", "*1\r\n$5\r\nhello"} {
		r := NewReader(strings.NewReader(in))
		_, err := r.ReadCommand()
		if err != io.ErrUnexpectedEOF {
			t.Errorf("ReadCommand(%q) err = %v, want ErrUnexpectedEOF", in, err)
		}
	}
}

func TestProtocolErrors(t *testing.T) {
	cases := []string{
		"*abc\r\n",                   // bad array count
		"*2\r\n$3\r\nGET\r\n:5\r\n",  // non-bulk inside command array
		"*1\r\n$-5\r\n",              // negative bulk length
		"*1\r\n$2000000\r\n",         // bulk over MaxBulk
		"*1\r\n$2\r\nhiXX",           // missing CRLF after bulk
		"*999999999999999999999\r\n", // count overflow
		"*70000\r\n",                 // over MaxArgs
	}
	for _, in := range cases {
		r := NewReader(strings.NewReader(in))
		_, err := r.ReadCommand()
		if !IsProtocol(err) {
			t.Errorf("ReadCommand(%q) err = %v, want protocol error", in, err)
		}
	}
}

func TestParseInt(t *testing.T) {
	good := map[string]int64{
		"0": 0, "7": 7, "-1": -1, "+42": 42,
		"9223372036854775807":  1<<63 - 1,
		"-9223372036854775808": -1 << 63,
	}
	good["00000000000000000000042"] = 42 // 20+ digits take the checked loop
	for in, want := range good {
		if got, ok := ParseInt([]byte(in)); !ok || got != want {
			t.Errorf("ParseInt(%q) = %d,%v want %d,true", in, got, ok, want)
		}
	}
	for _, in := range []string{
		"", "-", "+", "12x", "9223372036854775808", "99999999999999999999",
		// Each wraps uint64 if the overflow check trails the multiply.
		"18446744073709551617", "92233720368547758080", "5741663663022785017506",
		"1234567/", "12345678:", "123+4567",
	} {
		if _, ok := ParseInt([]byte(in)); ok {
			t.Errorf("ParseInt(%q) accepted, want reject", in)
		}
	}
}

func TestWriterReplyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SimpleString("OK")
	w.Error("ERR boom")
	w.Int(-42)
	w.BulkInt(1234567890123)
	w.Null()
	w.ArrayHeader(2)
	w.BulkBytes([]byte("ab"))
	w.BulkString("cd")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	rep, err := r.ReadReply()
	if err != nil || rep.Kind != SimpleString || string(rep.Bulk) != "OK" {
		t.Fatalf("simple: %+v %v", rep, err)
	}
	rep, err = r.ReadReply()
	if err != nil || rep.Kind != ErrorString || string(rep.Bulk) != "ERR boom" {
		t.Fatalf("error: %+v %v", rep, err)
	}
	rep, err = r.ReadReply()
	if err != nil || rep.Kind != Integer || rep.Int != -42 {
		t.Fatalf("int: %+v %v", rep, err)
	}
	rep, err = r.ReadReply()
	if err != nil || rep.Kind != BulkString || string(rep.Bulk) != "1234567890123" {
		t.Fatalf("bulk: %+v %v", rep, err)
	}
	rep, err = r.ReadReply()
	if err != nil || rep.Kind != NullBulk {
		t.Fatalf("null: %+v %v", rep, err)
	}
	rep, err = r.ReadReply()
	if err != nil || rep.Kind != Array || rep.N != 2 {
		t.Fatalf("array: %+v %v", rep, err)
	}
	for i, want := range []string{"ab", "cd"} {
		rep, err = r.ReadReply()
		if err != nil || rep.Kind != BulkString || string(rep.Bulk) != want {
			t.Fatalf("elem %d: %+v %v", i, rep, err)
		}
	}
}

func TestCommandEmit(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Command("SET", 7, -9)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	cmd := readOne(t, buf.String())
	if len(cmd) != 3 || string(cmd[0]) != "SET" || string(cmd[1]) != "7" || string(cmd[2]) != "-9" {
		t.Fatalf("round trip = %q", cmd)
	}
}

// The reader's arena is reused: args from a previous command must not
// be corrupted before the next Read* call, and a long pipeline must
// parse without growing allocations once warm.
func TestReaderReuseNoAllocsSteadyState(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 256; i++ {
		w.Command("SET", int64(i), int64(i*3))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	// Warm the arena on the first few commands.
	for i := 0; i < 8; i++ {
		if _, err := r.ReadCommand(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := r.ReadCommand(); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state ReadCommand allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestErrorsAreNotProtocol(t *testing.T) {
	if IsProtocol(io.EOF) || IsProtocol(errors.New("x")) {
		t.Fatal("IsProtocol misclassifies plain errors")
	}
}

// transcript parses everything in in, once as commands and once as
// replies, and spells each result and the final error.
func transcript(in io.Reader, replies bool) string {
	var out strings.Builder
	r := NewReader(in)
	for {
		if replies {
			rep, err := r.ReadReply()
			if err != nil {
				fmt.Fprintf(&out, "err %v\n", err)
				return out.String()
			}
			fmt.Fprintf(&out, "%d %d %d %q\n", rep.Kind, rep.Int, rep.N, rep.Bulk)
			continue
		}
		cmd, err := r.ReadCommand()
		if err != nil {
			fmt.Fprintf(&out, "err %v\n", err)
			return out.String()
		}
		fmt.Fprintf(&out, "%q\n", cmd)
	}
}

// The in-place bulk scanner runs when bufio holds whole elements; fed
// one byte per Read, or half a request at a time, the reader takes the
// checked path instead. Both must yield the same commands, replies and
// errors.
func TestFastAndCheckedPathsAgree(t *testing.T) {
	var pipe bytes.Buffer
	w := NewWriter(&pipe)
	for i := int64(0); i < 64; i++ {
		w.Command("SET", i<<40, -i)
		w.Command("MSET", i, i*3, math.MaxInt64-i, math.MinInt64+i)
		w.Command("DEL", i, i<<40, math.MinInt64)
	}
	w.Flush()

	// Pad with GETs until one bulk straddles the 64 KiB buffer edge.
	var edge bytes.Buffer
	w = NewWriter(&edge)
	for edge.Len()+w.bw.Buffered() < 64<<10-40 {
		w.Command("GET", 1234567890123456789)
	}
	w.ArrayHeader(2)
	w.BulkString("ECHO")
	w.BulkBytes(bytes.Repeat([]byte("x"), 100))
	w.Flush()

	var big bytes.Buffer
	w = NewWriter(&big)
	w.ArrayHeader(2)
	w.BulkString("ECHO")
	w.BulkBytes(bytes.Repeat([]byte("y"), 100<<10))
	w.Command("GET", 7)
	w.Flush()

	streams := map[string]string{
		"scan reply":    string(scanReply(1024)),
		"pipeline":      pipe.String(),
		"buffer edge":   edge.String(),
		"over 64 KiB":   big.String(),
		"null":          "*2\r\n$3\r\nGET\r\n$-1\r\n$-1\r\n",
		"bad length":    "*2\r\n$3\r\nGET\r\n$1x\r\n7\r\n",
		"missing CRLF":  "*2\r\n$3\r\nGET\r\n$1\r\n7XX*1\r\n$4\r\nPING\r\n",
		"bad CR":        "*2\r\n$3\r\nGET\r\n$1\r\n7X\n",
		"LF-only":       "*1\n$4\nPING\n$2\nab\n",
		"length zeroes": "*01\r\n$0004\r\nPING\r\n$+2\r\nab\r\n",
	}
	for name, s := range streams {
		for _, replies := range []bool{false, true} {
			want := transcript(bytes.NewReader([]byte(s)), replies)
			for rname, wrap := range map[string]func(io.Reader) io.Reader{
				"OneByteReader": iotest.OneByteReader, "HalfReader": iotest.HalfReader,
			} {
				if got := transcript(wrap(strings.NewReader(s)), replies); got != want {
					t.Errorf("%s (replies=%v) via %s differs:\n got %.300q\nwant %.300q", name, replies, rname, got, want)
				}
			}
		}
	}
}

type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// A pipeline that is already buffered must parse without touching the
// stream again: the server flushes replies exactly when the reader
// would block on a refill.
func TestBufferedPipelineReadsOnce(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := int64(0); i < 256; i++ {
		w.Command("SET", i<<50, i)
	}
	w.Flush()
	c := &countingReader{r: &buf}
	r := NewReader(c)
	for i := 0; i < 256; i++ {
		if _, err := r.ReadCommand(); err != nil {
			t.Fatal(err)
		}
	}
	c2 := &countingReader{r: bytes.NewReader(scanReply(256))}
	r2 := NewReader(c2)
	for i := 0; i < 2*256+2; i++ {
		if _, err := r2.ReadReply(); err != nil {
			t.Fatal(err)
		}
	}
	if c.reads != 1 || c2.reads != 1 {
		t.Fatalf("buffered pipeline made %d and %d reads, want 1 each", c.reads, c2.reads)
	}
}

// Integer emits never allocate, also when the buffer is nearly full and
// must flush before the element's single append.
func TestWriterIntNoAllocs(t *testing.T) {
	w := NewWriter(io.Discard)
	pad := make([]byte, 64<<10)
	emits := map[string]func(){
		"BulkInt":     func() { w.BulkInt(math.MinInt64) },
		"Int":         func() { w.Int(math.MinInt64) },
		"ArrayHeader": func() { w.ArrayHeader(math.MaxInt) },
	}
	for name, emit := range emits {
		for _, free := range []int{20, 4096} {
			allocs := testing.AllocsPerRun(100, func() {
				w.Flush()
				w.bw.Write(pad[:w.bw.Size()-free])
				emit()
			})
			if allocs > 0 {
				t.Errorf("%s with %d bytes free: %.1f allocs/op, want 0", name, free, allocs)
			}
		}
	}
}

func TestReadReplyNoAllocsSteadyState(t *testing.T) {
	r := NewReader(&loopReader{data: scanReply(1024)})
	for i := 0; i < 64; i++ {
		if _, err := r.ReadReply(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := r.ReadReply(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state ReadReply allocates %.1f allocs/op, want 0", allocs)
	}
}
