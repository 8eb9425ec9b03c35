// Package resp implements the subset of the Redis serialization
// protocol (RESP2) that rmaserve speaks: command arrays of bulk strings
// on the request side, the five RESP2 reply kinds on the response side.
//
// The implementation is allocation-conscious rather than allocation-
// free: each Reader owns one growable byte arena and one argument
// table, both reused across commands, so a steady-state connection
// parses pipelined commands without per-command allocations. Integers
// (19-digit keys and values) bypass strconv: ParseInt converts eight
// digits per step, formatInt renders every integer the Writer emits as
// part of one append, and wholly buffered bulks are scanned in place.
// The same Reader also parses replies (ReadReply), so the differential
// tests reuse this package from the other end of the wire.
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
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
		buf, _ := r.br.Peek(r.br.Buffered())
		if n, used := peekLen(buf, '*'); used > 0 && n <= MaxArgs {
			r.br.Discard(used)
			return r.readElems(n)
		}
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
		n, err := r.readCount('*')
		if err != nil {
			return nil, err
		}
		if n < 0 || n > MaxArgs {
			return nil, protoErrf("command has %d arguments (max %d)", n, MaxArgs)
		}
		return r.readElems(int(n))
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

// readElems parses a command's n bulk-string arguments.
func (r *Reader) readElems(n int) ([][]byte, error) {
	r.arena = r.arena[:0]
	r.args = r.args[:0]
	// Offsets first: growing the arena mid-parse would invalidate
	// already-recorded slices, so record (start,end) and slice at the end.
	type span struct{ lo, hi int }
	var spans [16]span
	sp := spans[:0]
	for i := 0; i < n; i++ {
		lo := len(r.arena)
		if !r.bulkFast() {
			if err := r.readBulk(); err != nil {
				return nil, err
			}
		}
		sp = append(sp, span{lo, len(r.arena)})
	}
	for _, s := range sp {
		r.args = append(r.args, r.arena[s.lo:s.hi])
	}
	return r.args, nil
}

// peekLen parses a "<prefix><len>\r\n" header at the start of b: at
// most seven unsigned digits, so it cannot overflow. used is the
// header's size, or 0 when b starts with anything else.
func peekLen(b []byte, prefix byte) (n, used int) {
	i := 1
	for ; i < len(b) && i <= 7 && b[i]-'0' <= 9; i++ {
		n = n*10 + int(b[i]-'0')
	}
	if i == 1 || i+1 >= len(b) || b[0] != prefix || b[i] != '\r' || b[i+1] != '\n' {
		return 0, 0
	}
	return n, i + 2
}

// bulkFast appends one "$<len>\r\n<payload>\r\n" element to the arena
// from bytes already buffered, so it never makes the reader refill, and
// its Peek and Discard cannot fail. It consumes nothing and reports
// false for an element not wholly buffered, null, oversized or
// malformed: the checked path then reads the same bytes and produces
// every error.
func (r *Reader) bulkFast() bool {
	buf, _ := r.br.Peek(r.br.Buffered())
	n, used := peekLen(buf, '$')
	end := used + n + 2
	if used == 0 || n > MaxBulk || end > len(buf) || buf[end-2] != '\r' || buf[end-1] != '\n' {
		return false
	}
	r.arena = append(r.arena, buf[used:end-2]...)
	r.br.Discard(end)
	return true
}

// readBulk is bulkFast's checked path for a command argument.
func (r *Reader) readBulk() error {
	prefix, err := r.br.ReadByte()
	if err != nil {
		return unexpectedEOF(err)
	}
	if prefix != '$' {
		return protoErrf("expected bulk string in command array, got %q", prefix)
	}
	bl, err := r.readCount('$')
	if err != nil {
		return err
	}
	return r.readPayload(bl)
}

// readPayload checks a bulk length, appends that many payload bytes to
// the arena and consumes their terminator.
func (r *Reader) readPayload(bl int64) error {
	if bl < 0 || bl > MaxBulk {
		return protoErrf("bulk length %d out of range (max %d)", bl, MaxBulk)
	}
	lo := len(r.arena)
	r.arena = grow(r.arena, int(bl))
	if _, err := io.ReadFull(r.br, r.arena[lo:]); err != nil {
		return unexpectedEOF(err)
	}
	return r.expectCRLF()
}

// readCount parses the integer after a type prefix up to CRLF.
func (r *Reader) readCount(prefix byte) (int64, error) {
	line, err := r.readLine(32)
	if err != nil {
		return 0, unexpectedEOF(err)
	}
	n, ok := ParseInt(line)
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

// ParseInt parses a decimal int64 without allocating (strconv.ParseInt
// would need a string), accepting exactly what strconv.ParseInt(s, 10,
// 64) accepts: an optional sign, then digits, in range.
func ParseInt(b []byte) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if len(b) > 0 && (neg || b[0] == '+') {
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	var n uint64
	if len(b) <= 19 {
		// Below 10^19 < 2^64 nothing wraps: test and convert eight
		// digits per step (SWAR), leaving the range to the end.
		for ; len(b) >= 8; b = b[8:] {
			x := binary.LittleEndian.Uint64(b)
			if ((x+0x4646464646464646)|(x-0x3030303030303030))&0x8080808080808080 != 0 {
				return 0, false
			}
			n = n*1e8 + eightDigits(x)
		}
	}
	// The tail, or a run of 20+ digits (leading zeros included): check
	// before each step, since a multiply past (1<<63)/10 could wrap.
	for _, c := range b {
		if c-'0' > 9 || n > (1<<63)/10 {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	if n > 1<<63 || n == 1<<63 && !neg {
		return 0, false
	}
	if neg {
		return -int64(n), true
	}
	return int64(n), true
}

// eightDigits converts eight ASCII digits, the first in the low byte,
// by multiply-shift: digit pairs, then quads, then the whole.
func eightDigits(x uint64) uint64 {
	x -= 0x3030303030303030
	x = x*10 + x>>8
	return ((x&0x000000FF000000FF)*(100+1000000<<32) + (x>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
}

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
	r.arena = r.arena[:0]
	if r.bulkFast() {
		return Reply{Kind: BulkString, Bulk: r.arena}, nil
	}
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
		r.arena = append(r.arena, line...)
		kind := SimpleString
		if prefix == '-' {
			kind = ErrorString
		}
		return Reply{Kind: kind, Bulk: r.arena}, nil
	case ':', '$', '*':
	default:
		return Reply{}, protoErrf("unknown reply prefix %q", prefix)
	}
	n, err := r.readCount(prefix)
	switch {
	case err != nil:
		return Reply{}, err
	case prefix == ':':
		return Reply{Kind: Integer, Int: n}, nil
	case prefix == '*' && (n < 0 || n > MaxArgs):
		return Reply{}, protoErrf("array length %d out of range (max %d)", n, MaxArgs)
	case prefix == '*':
		return Reply{Kind: Array, N: int(n)}, nil
	case n == -1:
		return Reply{Kind: NullBulk}, nil
	}
	if err := r.readPayload(n); err != nil {
		return Reply{}, err
	}
	return Reply{Kind: BulkString, Bulk: r.arena}, nil
}

// --- writer -------------------------------------------------------------------

// Writer formats RESP replies (and commands — the bench client emits
// command arrays through the same methods) into a buffered stream.
// Nothing reaches the wire until Flush. Not safe for concurrent use.
type Writer struct{ bw *bufio.Writer }

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 64<<10)}
}

// Flush pushes everything buffered to the wire.
func (w *Writer) Flush() error { return w.bw.Flush() }

// free returns the buffer's free space, flushed first when fewer than
// need bytes remain, so appending up to need bytes never reallocates.
// A failed flush sticks in the bufio.Writer, and Flush reports it.
func (w *Writer) free(need int) []byte {
	if w.bw.Available() < need {
		w.bw.Flush()
	}
	return w.bw.AvailableBuffer()
}

func (w *Writer) line(prefix byte, body string) {
	w.bw.WriteByte(prefix)
	w.bw.WriteString(body)
	w.bw.WriteString("\r\n")
}

func (w *Writer) lineInt(prefix byte, n int64) {
	var d [20]byte
	i := formatInt(&d, n)
	w.bw.Write(append(append(append(w.free(len(":-9223372036854775808\r\n")), prefix), d[i:]...), "\r\n"...))
}

// shortBulk writes p as a bulk string in one append when its length
// has at most two digits, and reports whether it did.
func shortBulk[T string | []byte](w *Writer, p T) bool {
	if len(p) > 99 {
		return false
	}
	b := append(w.free(len("$99\r\n\r\n")+len(p)), '$')
	if len(p) >= 10 {
		b = append(b, '0'+byte(len(p)/10))
	}
	b = append(b, '0'+byte(len(p)%10), '\r', '\n')
	w.bw.Write(append(append(b, p...), '\r', '\n'))
	return true
}

// digitPairs spells 00 through 99, two bytes each.
const digitPairs = "00010203040506070809101112131415161718192021222324" +
	"25262728293031323334353637383940414243444546474849" +
	"50515253545556575859606162636465666768697071727374" +
	"75767778798081828384858687888990919293949596979899"

// formatInt writes n's decimal form right-aligned into d and returns
// where it starts. Eight-digit chunks split off by /1e8 (at most two)
// keep the divisions in 32 bits; each chunk splits into halves that
// convert independently, two digits per table lookup.
func formatInt(d *[20]byte, n int64) int {
	u := uint64(n)
	if n < 0 {
		u = -u
	}
	i := len(d)
	for u >= 1e8 {
		q := u / 1e8
		c := uint32(u - q*1e8)
		hi := c / 1e4
		put4(d, i, c-hi*1e4)
		put4(d, i-4, hi)
		i -= 8
		u = q
	}
	c := uint32(u)
	for ; c >= 10; c /= 100 {
		i = putPair(d, i, c%100)
	}
	if c > 0 || i == len(d) {
		i--
		d[i] = byte('0' + c)
	}
	if n < 0 {
		i--
		d[i] = '-'
	}
	return i
}

func putPair(d *[20]byte, i int, p uint32) int {
	d[i-2], d[i-1] = digitPairs[2*p], digitPairs[2*p+1]
	return i - 2
}

func put4(d *[20]byte, i int, c uint32) {
	hi := c / 100
	putPair(d, i, c-hi*100)
	putPair(d, i-2, hi)
}

// SimpleString writes +s.
func (w *Writer) SimpleString(s string) { w.line('+', s) }

// Error writes -msg.
func (w *Writer) Error(msg string) { w.line('-', msg) }

// Int writes :n.
func (w *Writer) Int(n int64) { w.lineInt(':', n) }

// BulkBytes writes b as a bulk string.
func (w *Writer) BulkBytes(b []byte) {
	if !shortBulk(w, b) {
		w.lineInt('$', int64(len(b)))
		w.bw.Write(b)
		w.bw.WriteString("\r\n")
	}
}

// BulkString writes s as a bulk string.
func (w *Writer) BulkString(s string) {
	if !shortBulk(w, s) {
		w.lineInt('$', int64(len(s)))
		w.bw.WriteString(s)
		w.bw.WriteString("\r\n")
	}
}

// BulkInt writes n's decimal form as a bulk string — how rmaserve
// returns int64 values.
func (w *Writer) BulkInt(n int64) {
	var d [20]byte
	i := formatInt(&d, n)
	shortBulk(w, d[i:])
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
