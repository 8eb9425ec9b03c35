// Package resp implements the subset of the Redis serialization
// protocol (RESP2) that rmaserve speaks: command arrays of bulk strings
// on the request side, the five RESP2 reply kinds on the response side.
//
// The implementation is allocation-conscious rather than allocation-
// free: each Reader owns one growable byte arena and one argument
// table, both reused across commands, so a steady-state connection
// parses pipelined commands without per-command allocations; the Writer
// formats integers into a fixed scratch buffer through strconv's append
// forms. The same Reader also parses replies (ReadReply), so the
// differential tests reuse this package from the other end of the wire.
//
// Two request syntaxes are accepted, exactly like Redis:
//
//   - RESP arrays: *<n>\r\n followed by n bulk strings $<len>\r\n<data>\r\n
//   - inline commands: one line of whitespace-separated words (handy
//     for canned scripts and netcat debugging)
//
// Hard limits bound a malicious or corrupted stream: at most MaxArgs
// arguments per command and MaxBulk bytes per argument; violations
// surface as *ProtocolError, which the server answers once and then
// closes the connection.
package resp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Protocol limits. A command that exceeds either is a protocol error:
// the stream cannot be trusted after an oversized header, so the
// connection is expected to close.
const (
	// MaxArgs bounds the argument count of one command (MGET/MSET
	// batches included).
	MaxArgs = 1 << 16
	// MaxBulk bounds one argument's byte length. Keys and values are
	// 20-byte decimals; 1 MiB leaves generous room for ECHO payloads.
	MaxBulk = 1 << 20
	// maxInline bounds one inline command line.
	maxInline = 1 << 16
)

// ProtocolError is a malformed-stream error: after one of these the
// reader's position is unreliable and the connection should close.
type ProtocolError struct{ msg string }

func (e *ProtocolError) Error() string { return "resp: " + e.msg }

func protoErrf(format string, args ...any) error {
	return &ProtocolError{msg: fmt.Sprintf(format, args...)}
}

// IsProtocol reports whether err is a protocol-level error (as opposed
// to an I/O error such as a closed connection).
func IsProtocol(err error) bool {
	var pe *ProtocolError
	return errors.As(err, &pe)
}

// Reader parses RESP commands and replies from a buffered stream.
// Not safe for concurrent use.
type Reader struct {
	br *bufio.Reader
	// arena backs the argument bytes of the current command; args holds
	// slices into it. Both are reused: a returned command is valid only
	// until the next Read* call.
	arena []byte
	args  [][]byte
}

// NewReader wraps r. Buffer size fits a maximal coalescing window of
// small commands; larger bulks still work (bufio refills).
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64<<10)}
}

// readLine reads up to CRLF (LF accepted, as in Redis), returning the
// line without its terminator.
func (r *Reader) readLine(limit int) ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			return nil, protoErrf("line exceeds %d bytes", limit)
		}
		return nil, err
	}
	n := len(line) - 1
	if n > 0 && line[n-1] == '\r' {
		n--
	}
	if n > limit {
		return nil, protoErrf("line exceeds %d bytes", limit)
	}
	return line[:n], nil
}

// ReadCommand parses one command — a RESP array of bulk strings or an
// inline line — and returns its arguments. The returned slices alias
// the reader's arena and are valid only until the next Read* call;
// empty inline lines are skipped. io.EOF is returned untouched at a
// clean command boundary so servers can distinguish an orderly
// disconnect from a truncated command (io.ErrUnexpectedEOF).
func (r *Reader) ReadCommand() ([][]byte, error) {
	for {
		first, err := r.br.ReadByte()
		if err != nil {
			return nil, err // io.EOF at boundary is a clean close
		}
		if first != '*' {
			if err := r.br.UnreadByte(); err != nil {
				return nil, err
			}
			cmd, err := r.readInline()
			if err != nil {
				return nil, err
			}
			if len(cmd) == 0 {
				continue // blank line between inline commands
			}
			return cmd, nil
		}
		return r.readArray()
	}
}

// readInline splits one line into whitespace-separated arguments.
func (r *Reader) readInline() ([][]byte, error) {
	line, err := r.readLine(maxInline)
	if err != nil {
		return nil, err
	}
	r.arena = append(r.arena[:0], line...)
	r.args = r.args[:0]
	for f := range bytes.FieldsSeq(r.arena) {
		if len(r.args) == MaxArgs {
			return nil, protoErrf("command has more than %d arguments", MaxArgs)
		}
		r.args = append(r.args, f)
	}
	return r.args, nil
}

// readArray parses the body of a *<n> command ('*' already consumed).
func (r *Reader) readArray() ([][]byte, error) {
	n, err := r.readCount('*')
	if err != nil {
		return nil, err
	}
	if n < 0 || n > MaxArgs {
		return nil, protoErrf("command has %d arguments (max %d)", n, MaxArgs)
	}
	r.arena = r.arena[:0]
	r.args = r.args[:0]
	// Offsets first: growing the arena mid-parse would invalidate
	// already-recorded slices, so record (start,end) and slice at the end.
	type span struct{ lo, hi int }
	var spans [16]span
	sp := spans[:0]
	for i := int64(0); i < n; i++ {
		prefix, err := r.br.ReadByte()
		if err != nil {
			return nil, unexpectedEOF(err)
		}
		if prefix != '$' {
			return nil, protoErrf("expected bulk string in command array, got %q", prefix)
		}
		bl, err := r.readCount('$')
		if err != nil {
			return nil, err
		}
		if bl < 0 || bl > MaxBulk {
			return nil, protoErrf("bulk length %d out of range (max %d)", bl, MaxBulk)
		}
		lo := len(r.arena)
		r.arena = grow(r.arena, int(bl))
		if _, err := io.ReadFull(r.br, r.arena[lo:lo+int(bl)]); err != nil {
			return nil, unexpectedEOF(err)
		}
		if err := r.expectCRLF(); err != nil {
			return nil, err
		}
		sp = append(sp, span{lo, lo + int(bl)})
	}
	for _, s := range sp {
		r.args = append(r.args, r.arena[s.lo:s.hi])
	}
	return r.args, nil
}

// readCount parses the integer after a type prefix up to CRLF.
func (r *Reader) readCount(prefix byte) (int64, error) {
	line, err := r.readLine(32)
	if err != nil {
		if err == io.EOF {
			return 0, io.ErrUnexpectedEOF
		}
		return 0, err
	}
	n, ok := parseInt(line)
	if !ok {
		return 0, protoErrf("invalid length after %q: %q", prefix, line)
	}
	return n, nil
}

// expectCRLF consumes the terminator after a bulk payload.
func (r *Reader) expectCRLF() error {
	b, err := r.br.ReadByte()
	if err != nil {
		return unexpectedEOF(err)
	}
	if b == '\r' {
		if b, err = r.br.ReadByte(); err != nil {
			return unexpectedEOF(err)
		}
	}
	if b != '\n' {
		return protoErrf("bulk string not terminated by CRLF")
	}
	return nil
}

// grow extends b by n bytes, reusing capacity when it suffices so a
// steady-state connection parses without per-command allocations.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[:len(b)+n]
	}
	nb := make([]byte, len(b)+n, max(2*cap(b), len(b)+n))
	copy(nb, b)
	return nb
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// parseInt parses a decimal int64 without allocating (strconv.ParseInt
// would need a string). Rejects empty input, bare signs and overflow.
func parseInt(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	switch b[0] {
	case '-':
		neg, i = true, 1
	case '+':
		i = 1
	}
	if i == len(b) {
		return 0, false
	}
	var n uint64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + uint64(d)
		if n > 1<<63 {
			return 0, false
		}
	}
	if neg {
		return -int64(n), true
	}
	if n == 1<<63 {
		return 0, false
	}
	return int64(n), true
}

// ParseInt is parseInt for callers outside the package (the server's
// key/value arguments).
func ParseInt(b []byte) (int64, bool) { return parseInt(b) }

// --- replies ------------------------------------------------------------------

// ReplyKind discriminates the RESP2 reply types.
type ReplyKind uint8

// The RESP2 reply kinds.
const (
	SimpleString ReplyKind = iota // +OK
	ErrorString                   // -ERR ...
	Integer                       // :42
	BulkString                    // $3\r\nfoo
	NullBulk                      // $-1
	Array                         // *n header; elements follow
)

// Reply is one parsed reply. For Array only N is meaningful and the
// caller reads the N element replies next (streaming, so a deep MGET
// response needs no recursive materialization). Bulk aliases the
// reader's arena: valid until the next Read* call.
type Reply struct {
	Kind ReplyKind
	Int  int64  // Integer value
	Bulk []byte // SimpleString, ErrorString and BulkString payload
	N    int    // Array element count
}

// ReadReply parses one reply (for Array: just the header).
func (r *Reader) ReadReply() (Reply, error) {
	prefix, err := r.br.ReadByte()
	if err != nil {
		return Reply{}, err
	}
	switch prefix {
	case '+', '-':
		line, err := r.readLine(MaxBulk)
		if err != nil {
			return Reply{}, unexpectedEOF(err)
		}
		r.arena = append(r.arena[:0], line...)
		kind := SimpleString
		if prefix == '-' {
			kind = ErrorString
		}
		return Reply{Kind: kind, Bulk: r.arena}, nil
	case ':':
		n, err := r.readCount(':')
		if err != nil {
			return Reply{}, err
		}
		return Reply{Kind: Integer, Int: n}, nil
	case '$':
		bl, err := r.readCount('$')
		if err != nil {
			return Reply{}, err
		}
		if bl == -1 {
			return Reply{Kind: NullBulk}, nil
		}
		if bl < 0 || bl > MaxBulk {
			return Reply{}, protoErrf("bulk length %d out of range (max %d)", bl, MaxBulk)
		}
		r.arena = grow(r.arena[:0], int(bl))
		if _, err := io.ReadFull(r.br, r.arena); err != nil {
			return Reply{}, unexpectedEOF(err)
		}
		if err := r.expectCRLF(); err != nil {
			return Reply{}, err
		}
		return Reply{Kind: BulkString, Bulk: r.arena}, nil
	case '*':
		n, err := r.readCount('*')
		if err != nil {
			return Reply{}, err
		}
		if n < 0 || n > MaxArgs {
			return Reply{}, protoErrf("array length %d out of range (max %d)", n, MaxArgs)
		}
		return Reply{Kind: Array, N: int(n)}, nil
	default:
		return Reply{}, protoErrf("unknown reply prefix %q", prefix)
	}
}

// --- writer -------------------------------------------------------------------

// Writer formats RESP replies (and commands — the bench client emits
// command arrays through the same methods) into a buffered stream.
// Nothing reaches the wire until Flush. Not safe for concurrent use.
type Writer struct {
	bw *bufio.Writer
	// Two scratch buffers: lineInt formats lengths into scratch while a
	// BulkInt payload formatted into bulkScratch is still pending.
	scratch     [24]byte
	bulkScratch [24]byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 64<<10)}
}

// Flush pushes everything buffered to the wire.
func (w *Writer) Flush() error { return w.bw.Flush() }

func (w *Writer) line(prefix byte, body string) {
	w.bw.WriteByte(prefix)
	w.bw.WriteString(body)
	w.bw.WriteString("\r\n")
}

func (w *Writer) lineInt(prefix byte, n int64) {
	w.bw.WriteByte(prefix)
	w.bw.Write(strconv.AppendInt(w.scratch[:0], n, 10))
	w.bw.WriteString("\r\n")
}

// SimpleString writes +s.
func (w *Writer) SimpleString(s string) { w.line('+', s) }

// Error writes -msg.
func (w *Writer) Error(msg string) { w.line('-', msg) }

// Int writes :n.
func (w *Writer) Int(n int64) { w.lineInt(':', n) }

// BulkBytes writes b as a bulk string.
func (w *Writer) BulkBytes(b []byte) {
	w.lineInt('$', int64(len(b)))
	w.bw.Write(b)
	w.bw.WriteString("\r\n")
}

// BulkString writes s as a bulk string.
func (w *Writer) BulkString(s string) {
	w.lineInt('$', int64(len(s)))
	w.bw.WriteString(s)
	w.bw.WriteString("\r\n")
}

// BulkInt writes n's decimal form as a bulk string — how rmaserve
// returns int64 values.
func (w *Writer) BulkInt(n int64) {
	b := strconv.AppendInt(w.bulkScratch[:0], n, 10)
	w.lineInt('$', int64(len(b)))
	w.bw.Write(b)
	w.bw.WriteString("\r\n")
}

// Null writes the RESP2 null bulk $-1 (missing key).
func (w *Writer) Null() { w.bw.WriteString("$-1\r\n") }

// ArrayHeader writes *n; the caller writes the n elements next.
func (w *Writer) ArrayHeader(n int) { w.lineInt('*', int64(n)) }

// Command writes one command as a RESP array of bulk strings: name,
// then each int64 argument in decimal — the client-side emit path.
func (w *Writer) Command(name string, args ...int64) {
	w.ArrayHeader(1 + len(args))
	w.BulkString(name)
	for _, a := range args {
		w.BulkInt(a)
	}
}
