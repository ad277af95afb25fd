package pcap

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// readBufSize is the read buffer both readers ask bufio for.
const readBufSize = 1 << 16

// sizedTrace is n data packets of one frame length (FCS included).
func sizedTrace(n, frameLen int) *trace.Trace {
	tr := sampleTrace(n)
	for _, p := range tr.Packets {
		p.FrameLen = frameLen
	}
	return tr
}

type writeFunc = func(io.Writer, *trace.Trace, int) error

// formats pairs each capture format's writer with its batch reader.
var formats = []struct {
	name  string
	write writeFunc
	read  func(io.Reader, string) (*trace.Trace, error)
}{{"classic", Write, Read}, {"pcapng", WriteNG, ReadNG}}

func encode(tb testing.TB, write writeFunc, tr *trace.Trace, snapLen int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := write(&buf, tr, snapLen); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func drain(s *Stream) ([]*packet.Packet, error) {
	var got []*packet.Packet
	for {
		p, _, err := s.Next()
		if err != nil {
			return got, err
		}
		got = append(got, p)
	}
}

var controlCommand = []byte("replay start=42 rate=0.5 loop=3")

// controlCapture is one in-band control frame followed by enough data
// records to overwrite the read buffer `buffers` times over.
func controlCapture(tb testing.TB, write writeFunc, buffers int) []byte {
	tb.Helper()
	data := sampleTrace(buffers*readBufSize/(16+252) + 1)
	tr := trace.New("ctl", data.Len()+1)
	tr.Append(&packet.Packet{
		Tag: packet.Tag{Replayer: 9, Seq: 1}, Kind: packet.KindControl, FrameLen: 256,
		Flow: packet.FiveTuple{
			Src: packet.IPForNode(1), Dst: packet.IPForNode(2),
			SrcPort: 7000, DstPort: packet.ControlPort, Proto: packet.ProtoUDP,
		},
		Control: controlCommand,
	}, sim.Second)
	for i, p := range data.Packets {
		tr.Append(p, data.Times[i])
	}
	return encode(tb, write, tr, 0)
}

// TestControlPayloadOutlivesReadBuffer pins the lifetime rule: a decoded
// packet owns no bytes of the read buffer, so a control payload read
// first is intact after the reader has recycled that buffer twice over.
func TestControlPayloadOutlivesReadBuffer(t *testing.T) {
	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) {
			got, err := f.read(bytes.NewReader(controlCapture(t, f.write, 2)), f.name)
			if err != nil {
				t.Fatal(err)
			}
			p := got.Packets[0]
			if p.Kind != packet.KindControl || !bytes.Equal(p.Control, controlCommand) {
				t.Fatalf("control packet after %d records: kind %v, payload %q", got.Len()-1, p.Kind, p.Control)
			}
		})
	}
}

// TestDecodeAllocs holds the per-record allocation ceiling: the record
// header, the frame bytes and the packet are all served from memory the
// reader already owns. What is left is per stream (reader, read buffer,
// for ReadNG the trace) and one chunk per packetChunk records.
func TestDecodeAllocs(t *testing.T) {
	const records, ceiling = 8 * packetChunk, 0.05
	for _, frameLen := range []int{64, 1400} {
		tr := sizedTrace(records, frameLen)
		classic, ng := encode(t, Write, tr, 0), encode(t, WriteNG, tr, 0)
		for _, f := range []struct {
			name   string
			decode func() int
		}{
			{"classic", func() int {
				s, err := NewStream(bytes.NewReader(classic), "allocs")
				if err != nil {
					t.Fatal(err)
				}
				for {
					if _, _, err := s.Next(); err != nil {
						return s.Count()
					}
				}
			}},
			{"pcapng", func() int {
				got, err := ReadNG(bytes.NewReader(ng), "allocs")
				if err != nil {
					t.Fatal(err)
				}
				return got.Len()
			}},
		} {
			t.Run(fmt.Sprintf("%s/%dB", f.name, frameLen), func(t *testing.T) {
				per := testing.AllocsPerRun(5, func() {
					if n := f.decode(); n != records {
						t.Fatalf("decoded %d of %d records", n, records)
					}
				}) / records
				if per > ceiling {
					t.Fatalf("%.3f objects per record, ceiling %v", per, ceiling)
				}
			})
		}
	}
}

// bigRecordCapture is small, 100 KB, small: the middle record is larger
// than the read buffer, under a 256 KiB header snaplen.
func bigRecordCapture(tb testing.TB, write writeFunc) (*trace.Trace, []byte) {
	tr := sampleTrace(3)
	tr.Packets[1].FrameLen = 100_000 + packet.FCSLen
	return tr, encode(tb, write, tr, 256<<10)
}

// TestRecordLargerThanReadBuffer: a record that does not fit the read
// buffer takes the stream's own overflow buffer and must decode to what
// parsing each frame on its own gives, with the records around it
// unharmed.
func TestRecordLargerThanReadBuffer(t *testing.T) {
	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) {
			tr, raw := bigRecordCapture(t, f.write)
			got, err := f.read(bytes.NewReader(raw), f.name)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != tr.Len() {
				t.Fatalf("decoded %d records, want %d", got.Len(), tr.Len())
			}
			for i, p := range tr.Packets {
				frame, err := p.Frame()
				if err != nil {
					t.Fatal(err)
				}
				want, err := packet.ParseFrame(frame)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Packets[i], want) || got.Times[i] != tr.Times[i] {
					t.Fatalf("record %d: %+v at %v, want %+v at %v", i, got.Packets[i], got.Times[i], want, tr.Times[i])
				}
			}
		})
	}
}

// TestTornLargeRecordDiag: the overflow path reports a cut exactly as
// the in-buffer path does.
func TestTornLargeRecordDiag(t *testing.T) {
	_, raw := bigRecordCapture(t, Write)
	small := int64(16 + 252)
	const have = 70_000 // body bytes of the big record before the cut
	s, err := NewStream(bytes.NewReader(raw[:24+small+16+have]), "torn")
	if err != nil {
		t.Fatal(err)
	}
	got, err := drain(s)
	if len(got) != 1 || !errors.Is(err, ErrTruncated) || errors.Is(err, io.EOF) {
		t.Fatalf("decoded %d records, err %v", len(got), err)
	}
	want := Diag{Records: 1, Bytes: 24 + small, TornBytes: 16 + have,
		Reason: "torn record body (70000 of 100000 bytes in record 1)"}
	if d := s.Diag(); d != want {
		t.Fatalf("Diag = %+v, want %+v", d, want)
	}
	if want := "pcap: record 1 body: pcap: truncated record: unexpected EOF"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}

// countingReader counts what the decoder pulled from its source.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestLimitRefusesLargeRecordUnread: SetLimit refuses a record on its
// header alone, also when the body would have gone to the overflow
// buffer — the decoder consumes at most limit+16 bytes, and the source
// is not asked for the refused body (only for the read-ahead that was
// already buffered behind the header).
func TestLimitRefusesLargeRecordUnread(t *testing.T) {
	_, raw := bigRecordCapture(t, Write)
	limit := int64(24 + 16 + 252 + 1000) // admits the first record only
	src := &countingReader{r: bytes.NewReader(raw)}
	s, err := NewStream(src, "lim")
	if err != nil {
		t.Fatal(err)
	}
	s.SetLimit(limit)
	got, err := drain(s)
	if len(got) != 1 || !errors.Is(err, ErrLimit) {
		t.Fatalf("decoded %d records, err %v", len(got), err)
	}
	if d := s.Diag(); d.Bytes+d.TornBytes > limit+16 || d.TornBytes != 16 {
		t.Fatalf("Diag = %+v: consumed past limit+16 = %d", d, limit+16)
	}
	if src.n > readBufSize {
		t.Fatalf("source was read for %d bytes; the refused 100000-byte body was fetched", src.n)
	}
	if s.big != nil {
		t.Fatal("overflow buffer was allocated for a refused record")
	}
}

// TestLiveTapByteAtATime: a live source (io.Pipe) that delivers the
// capture in 1-byte writes decodes to the same packets as the file.
func TestLiveTapByteAtATime(t *testing.T) {
	raw := encode(t, Write, sampleTrace(5), 0)
	want, err := Read(bytes.NewReader(raw), "file")
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	go func() {
		for i := range raw {
			if _, err := pw.Write(raw[i : i+1]); err != nil {
				return
			}
		}
		pw.Close()
	}()
	defer pr.Close() // unblocks the writer if the test fails early
	got, err := Read(pr, "tap")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Packets, want.Packets) || !reflect.DeepEqual(got.Times, want.Times) {
		t.Fatalf("byte-at-a-time tap decoded %d records differing from the file's %d", got.Len(), want.Len())
	}
}

// TestWritersReuseBufferCleanly: both writers build every record in one
// reused buffer, so a short frame after a long one (or a snap-truncated
// one) must not carry stale bytes. The reference writes each packet as
// a capture of its own, so through a fresh buffer.
func TestWritersReuseBufferCleanly(t *testing.T) {
	tr := sampleTrace(6)
	for i, n := range []int{1400, 64, 900, 65, 66, 67} { // pcapng pads to 4: cover every remainder
		tr.Packets[i].FrameLen = n
	}
	tr.Packets[2].Kind = packet.KindNoise
	tr.Packets[3].Kind = packet.KindInvalid
	for _, snapLen := range []int{0, 300} {
		fresh := trace.New("fresh", 1)
		var classic, ng bytes.Buffer
		for i, p := range tr.Packets {
			fresh.Packets, fresh.Times = []*packet.Packet{p}, []sim.Time{tr.Times[i]}
			one := encode(t, Write, fresh, snapLen)
			oneNG := encode(t, WriteNG, fresh, snapLen)
			if i == 0 {
				classic.Write(one[:24])
				ng.Write(oneNG[:28+32]) // SHB + IDB
			}
			classic.Write(one[24:])
			ng.Write(oneNG[28+32:])
		}
		if got := encode(t, Write, tr, snapLen); !bytes.Equal(got, classic.Bytes()) {
			t.Fatalf("snaplen %d: Write over a reused buffer differs from per-packet writes", snapLen)
		}
		if got := encode(t, WriteNG, tr, snapLen); !bytes.Equal(got, ng.Bytes()) {
			t.Fatalf("snaplen %d: WriteNG over a reused buffer differs from per-packet writes", snapLen)
		}
	}
}

// BenchmarkStreamNext is one record per op at 1400 B; verify.sh -bench
// requires it to report 0 allocs/op.
func BenchmarkStreamNext(b *testing.B) {
	raw := encode(b, Write, sizedTrace(4096, 1400), 0)
	b.SetBytes(int64(len(raw)-24) / 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; {
		s, err := NewStream(bytes.NewReader(raw), "bench")
		if err != nil {
			b.Fatal(err)
		}
		for ; n < b.N; n++ {
			if _, _, err := s.Next(); err != nil {
				break
			}
		}
	}
}
