package resp

import (
	"bytes"
	"io"
	"testing"
)

// The codec's share of a served request, without the TCP stack: keys
// and values on the bench workloads are 19-digit int64s.

// scanReply is a SCAN reply of pairs key/value pairs, 19-digit keys.
func scanReply(pairs int) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.ArrayHeader(2*pairs + 1)
	for i := 0; i < pairs; i++ {
		w.BulkInt(1<<62 + int64(i)*7919)
		w.BulkInt(-1<<62 - int64(i))
	}
	w.BulkString("consistent")
	w.Flush()
	return buf.Bytes()
}

// loopReader serves data over and over, like a connection that keeps
// delivering traffic of one shape; data holds whole elements.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}

var sinkInt int64

func BenchmarkParseInt(b *testing.B) {
	in := []byte("4611686018427395903")
	for i := 0; i < b.N; i++ {
		n, _ := ParseInt(in)
		sinkInt += n
	}
}

func BenchmarkBulkInt(b *testing.B) {
	w := NewWriter(io.Discard)
	for i := 0; i < b.N; i++ {
		w.BulkInt(1<<62 + int64(i))
	}
}

// BenchmarkReadReplyScan reads and converts one SCAN element.
func BenchmarkReadReplyScan(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := int64(0); i < 1024; i++ {
		w.BulkInt(1<<62 + i*7919)
	}
	w.Flush()
	r := NewReader(&loopReader{data: buf.Bytes()})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := r.ReadReply()
		if err != nil {
			b.Fatal(err)
		}
		n, _ := ParseInt(rep.Bulk)
		sinkInt += n
	}
}

func BenchmarkReadCommandSET(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := int64(0); i < 256; i++ {
		w.Command("SET", 1<<62+i*7919, -1<<62-i)
	}
	w.Flush()
	r := NewReader(&loopReader{data: buf.Bytes()})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadCommand(); err != nil {
			b.Fatal(err)
		}
	}
}
