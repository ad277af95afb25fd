package pcap

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/trace"
)

// TestStreamMatchesRead asserts the incremental reader decodes the exact
// record sequence of the batch reader.
func TestStreamMatchesRead(t *testing.T) {
	tr := sampleTrace(250)
	var buf bytes.Buffer
	if err := Write(&buf, tr, 0); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	batch, err := Read(bytes.NewReader(raw), "batch")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(bytes.NewReader(raw), "stream")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		p, ts, err := s.Next()
		if errors.Is(err, io.EOF) {
			if i != batch.Len() {
				t.Fatalf("stream ended after %d records, batch read %d", i, batch.Len())
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ts != batch.Times[i] || p.Tag != batch.Packets[i].Tag || p.Kind != batch.Packets[i].Kind {
			t.Fatalf("record %d: stream (%v,%v,%v) != batch (%v,%v,%v)",
				i, p.Tag, p.Kind, ts, batch.Packets[i].Tag, batch.Packets[i].Kind, batch.Times[i])
		}
	}
	if s.Count() != 250 {
		t.Fatalf("Count() = %d, want 250", s.Count())
	}
}

// TestReadKeepsPrefixOnTruncation is the regression test for the
// streaming-robustness contract: a capture chopped mid-record yields the
// packets parsed so far alongside an ErrTruncated error.
func TestReadKeepsPrefixOnTruncation(t *testing.T) {
	tr := sampleTrace(10)
	var buf bytes.Buffer
	if err := Write(&buf, tr, 0); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	bodyLen := frameBytes(t, tr) // on-disk body length of one record

	cases := []struct {
		name string
		cut  int // bytes to drop from the tail
		want int // packets expected in the partial trace
	}{
		{"mid final body", 10, 9},
		{"mid final header", bodyLen + 5, 9},
		{"exactly after final header", bodyLen, 9},
		{"into penultimate body", 16 + bodyLen + 10, 8},
		{"exact boundary", 0, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Read(bytes.NewReader(raw[:len(raw)-tc.cut]), "part")
			if tc.cut == 0 {
				if err != nil {
					t.Fatal(err)
				}
			} else {
				if !errors.Is(err, ErrTruncated) {
					t.Fatalf("error %v does not wrap ErrTruncated", err)
				}
				if errors.Is(err, io.EOF) {
					t.Fatalf("mid-record cut reads as a clean end: %v", err)
				}
				if got == nil {
					t.Fatal("partial trace not returned alongside the error")
				}
			}
			if got.Len() != tc.want {
				t.Fatalf("kept %d packets, want %d", got.Len(), tc.want)
			}
			for i := 0; i < got.Len(); i++ {
				if got.Packets[i].Tag != tr.Packets[i].Tag {
					t.Fatalf("packet %d: tag %v, want %v", i, got.Packets[i].Tag, tr.Packets[i].Tag)
				}
			}
		})
	}
}

// frameBytes returns the on-disk body length of one sample record.
func frameBytes(t testing.TB, tr *trace.Trace) int {
	t.Helper()
	f, err := tr.Packets[len(tr.Packets)-1].Frame()
	if err != nil {
		t.Fatal(err)
	}
	return len(f)
}

// TestStreamTruncatedHeaderSticky checks the error is terminal and
// repeatable.
func TestStreamTruncatedHeaderSticky(t *testing.T) {
	tr := sampleTrace(2)
	var buf bytes.Buffer
	if err := Write(&buf, tr, 0); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-3]
	s, err := NewStream(bytes.NewReader(raw), "sticky")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	var lastErr error
	for {
		_, _, err := s.Next()
		if err != nil {
			lastErr = err
			break
		}
		n++
	}
	if n != 1 {
		t.Fatalf("decoded %d records before truncation, want 1", n)
	}
	if !errors.Is(lastErr, ErrTruncated) {
		t.Fatalf("error %v does not wrap ErrTruncated", lastErr)
	}
	if _, _, err := s.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("sticky error lost: %v", err)
	}
}

// TestStreamDiag pins the truncation diagnostics: a cut mid-body (and
// mid-header) reports how many torn bytes were consumed and why, while a
// clean EOF reports nothing — the facts upload paths surface to clients
// instead of silently scoring the prefix.
func TestStreamDiag(t *testing.T) {
	tr := sampleTrace(10)
	var buf bytes.Buffer
	if err := Write(&buf, tr, 0); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	bodyLen := frameBytes(t, tr)
	recBytes := int64(16 + bodyLen)

	drain := func(s *Stream) error {
		for {
			if _, _, err := s.Next(); err != nil {
				return err
			}
		}
	}

	t.Run("clean EOF", func(t *testing.T) {
		s, err := NewStream(bytes.NewReader(raw), "clean")
		if err != nil {
			t.Fatal(err)
		}
		if err := drain(s); !errors.Is(err, io.EOF) {
			t.Fatal(err)
		}
		d := s.Diag()
		want := Diag{Records: 10, Bytes: 24 + 10*recBytes}
		if d != want {
			t.Fatalf("Diag = %+v, want %+v", d, want)
		}
	})
	t.Run("torn body", func(t *testing.T) {
		s, err := NewStream(bytes.NewReader(raw[:len(raw)-10]), "torn")
		if err != nil {
			t.Fatal(err)
		}
		if err := drain(s); !errors.Is(err, ErrTruncated) {
			t.Fatal(err)
		}
		d := s.Diag()
		if d.Records != 9 || d.Bytes != 24+9*recBytes {
			t.Fatalf("Diag = %+v", d)
		}
		if d.TornBytes != recBytes-10 {
			t.Fatalf("TornBytes = %d, want %d", d.TornBytes, recBytes-10)
		}
		if !strings.Contains(d.Reason, "torn record body") {
			t.Fatalf("Reason = %q", d.Reason)
		}
	})
	t.Run("torn header", func(t *testing.T) {
		s, err := NewStream(bytes.NewReader(raw[:len(raw)-bodyLen-9]), "torn")
		if err != nil {
			t.Fatal(err)
		}
		if err := drain(s); !errors.Is(err, ErrTruncated) {
			t.Fatal(err)
		}
		d := s.Diag()
		if d.Records != 9 || d.TornBytes != 7 || !strings.Contains(d.Reason, "torn record header") {
			t.Fatalf("Diag = %+v", d)
		}
	})
}

// TestStreamLimit: the configurable upload-size guard refuses the record
// that would cross the budget, before reading its body, with a sticky
// error wrapping ErrLimit; a limit covering the whole capture is
// invisible.
func TestStreamLimit(t *testing.T) {
	tr := sampleTrace(10)
	var buf bytes.Buffer
	if err := Write(&buf, tr, 0); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	recBytes := int64(16 + frameBytes(t, tr))

	// Budget for exactly 4 records (plus the 24-byte global header).
	s, err := NewStream(bytes.NewReader(raw), "lim")
	if err != nil {
		t.Fatal(err)
	}
	s.SetLimit(24 + 4*recBytes)
	n := 0
	var lastErr error
	for {
		if _, _, lastErr = s.Next(); lastErr != nil {
			break
		}
		n++
	}
	if n != 4 {
		t.Fatalf("decoded %d records under limit, want 4", n)
	}
	if !errors.Is(lastErr, ErrLimit) {
		t.Fatalf("error %v does not wrap ErrLimit", lastErr)
	}
	if _, _, err := s.Next(); !errors.Is(err, ErrLimit) {
		t.Fatalf("limit error not sticky: %v", err)
	}
	if d := s.Diag(); !strings.Contains(d.Reason, "size limit exceeded") || d.Records != 4 {
		t.Fatalf("Diag = %+v", d)
	}

	// Exact-fit limit: the whole capture reads cleanly.
	s2, err := NewStream(bytes.NewReader(raw), "fit")
	if err != nil {
		t.Fatal(err)
	}
	s2.SetLimit(int64(len(raw)))
	n = 0
	for {
		if _, _, err := s2.Next(); err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatal(err)
			}
			break
		}
		n++
	}
	if n != 10 {
		t.Fatalf("decoded %d records at exact-fit limit, want 10", n)
	}
}

// TestStreamTruncatedGlobalHeader distinguishes a short global header.
func TestStreamTruncatedGlobalHeader(t *testing.T) {
	if _, err := NewStream(bytes.NewReader([]byte{0x4d, 0x3c}), "hdr"); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short global header: %v, want ErrTruncated wrap", err)
	}
}

// TestOpenStream exercises the file-backed constructor.
func TestOpenStream(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.pcap")
	tr := sampleTrace(7)
	if err := WriteFile(path, tr, 0); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := 0
	for {
		p, _, err := s.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if p.Kind != packet.KindData {
			t.Fatalf("record %d: kind %v", n, p.Kind)
		}
		n++
	}
	if n != 7 {
		t.Fatalf("read %d records, want 7", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // double close is a no-op
		t.Fatal(err)
	}
}
