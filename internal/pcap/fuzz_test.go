package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/packet"
)

// FuzzStream throws arbitrary and mutated byte streams at the record
// parser that pcap.Stream (and through it, the streaming consistency
// engine) faces on live, partial or adversarial captures. The invariants:
// no panic, no unbounded allocation, the batch reader and the incremental
// reader agree record-for-record, a truncation error always leaves the
// already-parsed prefix intact, no returned packet changes once the
// reader has moved on (packets own no bytes of the reused read buffer),
// and the byte accounting never claims more than the input held.
func FuzzStream(f *testing.F) {
	// Seed corpus: a healthy capture, a microsecond capture, truncations
	// at every interesting boundary, and hostile length fields.
	tr := sampleTrace(4)
	var buf bytes.Buffer
	if err := Write(&buf, tr, 0); err != nil {
		f.Fatal(err)
	}
	healthy := buf.Bytes()
	f.Add(healthy)
	f.Add(healthy[:24])                   // header only
	f.Add(healthy[:24+7])                 // mid record header
	f.Add(healthy[:len(healthy)-3])       // mid final body
	f.Add([]byte{})                       // empty
	f.Add([]byte{0x4d, 0x3c, 0xb2, 0xa1}) // magic only

	micros := append([]byte(nil), healthy...)
	binary.LittleEndian.PutUint32(micros[0:4], MagicMicros)
	f.Add(micros)

	// incl_len much larger than the remaining stream: must error, not
	// allocate 4 GiB.
	hostile := append([]byte(nil), healthy[:24]...)
	var rec [16]byte
	binary.LittleEndian.PutUint32(rec[8:12], 0xFFFFFFF0)
	hostile = append(hostile, rec[:]...)
	f.Add(hostile)

	// incl_len inside the snap limit but beyond the stream.
	hostile2 := append([]byte(nil), healthy[:24]...)
	binary.LittleEndian.PutUint32(rec[8:12], DefaultSnapLen)
	hostile2 = append(hostile2, rec[:]...)
	f.Add(hostile2)

	f.Add(healthy[:len(healthy)-frameBytes(f, tr)]) // cut exactly after the final record header
	f.Add(controlCapture(f, Write, 2))              // a control payload, then enough records to recycle the read buffer

	f.Fuzz(func(t *testing.T, data []byte) {
		batch, batchErr := Read(bytes.NewReader(data), "fuzz")

		s, err := NewStream(bytes.NewReader(data), "fuzz")
		if err != nil {
			if batchErr == nil {
				t.Fatalf("stream rejected header (%v) but batch accepted", err)
			}
			return
		}
		n := 0
		var streamErr error
		var kept []*packet.Packet
		var asReturned []packet.Packet // value copies, Control deep-copied
		for {
			p, ts, err := s.Next()
			if err != nil {
				if !errors.Is(err, io.EOF) {
					streamErr = err
				}
				break
			}
			if p == nil {
				t.Fatal("nil packet without error")
			}
			kept = append(kept, p)
			c := *p
			c.Control = bytes.Clone(p.Control)
			asReturned = append(asReturned, c)
			if batch != nil && n < batch.Len() {
				if ts != batch.Times[n] || p.Tag != batch.Packets[n].Tag {
					t.Fatalf("record %d: stream/batch disagree", n)
				}
			}
			n++
			if n > len(data) { // each record consumes ≥16 bytes; this cannot happen
				t.Fatalf("decoded %d records from %d bytes", n, len(data))
			}
		}

		for i, p := range kept {
			if !reflect.DeepEqual(*p, asReturned[i]) {
				t.Fatalf("packet %d changed after the stream moved on: %+v, was %+v", i, *p, asReturned[i])
			}
		}
		d := s.Diag()
		if d.Records != s.Count() || d.Records != n {
			t.Fatalf("Diag.Records %d, Count() %d, decoded %d", d.Records, s.Count(), n)
		}
		if d.Bytes+d.TornBytes > int64(len(data)) {
			t.Fatalf("Diag claims %d+%d bytes of a %d-byte input", d.Bytes, d.TornBytes, len(data))
		}

		// Batch and stream must agree on count and error class.
		if batch != nil && batch.Len() != n {
			t.Fatalf("batch parsed %d records, stream %d", batch.Len(), n)
		}
		if (batchErr == nil) != (streamErr == nil) {
			t.Fatalf("batch err %v, stream err %v", batchErr, streamErr)
		}
		if errors.Is(batchErr, ErrTruncated) && batch == nil {
			t.Fatal("truncation did not preserve the parsed prefix")
		}
	})
}
