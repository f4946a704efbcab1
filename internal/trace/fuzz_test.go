package trace

import (
	"bytes"
	"io"
	"testing"

	"nucasim/internal/memaddr"
)

// FuzzReader feeds arbitrary bytes to the binary address-stream decoder.
// Properties: NewReader/Next never panic and never hang, every error is a
// clean Go error (bad magic, truncated record, varint overflow), and the
// decoder can never manufacture more records than the input has bytes
// (each record costs at least a flags byte plus one varint byte).
func FuzzReader(f *testing.F) {
	var valid bytes.Buffer
	w, err := NewWriter(&valid)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []Record{
		{Addr: 0x1000, PC: 0x400},
		{Addr: 0x1040, PC: 0x404, Write: true},
		{Addr: 0x1000, PC: 0x400},
	} {
		if err := w.Write(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(Magic))                                                                                 // header only, zero records
	f.Add([]byte("NUCATRC0\x00\x00"))                                                                    // wrong version byte
	f.Add([]byte{})                                                                                      // empty stream
	f.Add(append([]byte(Magic), 0x02, 0x80))                                                             // truncated varint
	f.Add(append([]byte(Magic), 0x02, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)) // varint overflow

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				break
			}
			_ = rec.Addr.Block()
		}
		if got, limit := r.Count(), uint64(len(data)); got > limit {
			t.Fatalf("decoded %d records from %d input bytes", got, limit)
		}
	})
}

// FuzzRoundTrip checks the encoder/decoder pair on arbitrary single
// references: whatever address, PC and write flag go in must come back
// out, regardless of how hostile the deltas are.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0x1000), uint64(0x400), false)
	f.Add(uint64(0), uint64(0), true)
	f.Add(^uint64(0), uint64(1)<<63, true)
	f.Fuzz(func(t *testing.T, addr, pc uint64, write bool) {
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		in := Record{Addr: memaddr.Addr(addr), PC: memaddr.Addr(pc), Write: write}
		if err := w.Write(in); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		out, err := r.Next()
		if err != nil {
			t.Fatalf("decoding a just-encoded record: %v", err)
		}
		if out != in {
			t.Fatalf("round trip changed the record: wrote %+v, read %+v", in, out)
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("one record in, want io.EOF after one record out, got %v", err)
		}
	})
}
