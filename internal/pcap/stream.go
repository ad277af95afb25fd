package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/packet"
	"repro/internal/sim"
)

// ErrTruncated marks a capture that ends mid-record — the normal state of
// an in-progress capture file (the writer got ahead of a flush, or the
// capture box died). Callers streaming over live files typically treat it
// as a soft end-of-input; batch callers surface it.
var ErrTruncated = errors.New("pcap: truncated record")

// ErrLimit marks a stream that hit its configured byte budget (SetLimit).
// Upload paths use it to refuse captures larger than what admission
// control reserved, without buffering the oversized remainder.
var ErrLimit = errors.New("pcap: stream exceeds size limit")

// Stream is an incremental pcap reader: one record per Next call, no
// whole-trace materialization. It is the file-backed Source of the
// streaming consistency engine (internal/stream), and the batch Read is
// built on top of it, so both paths share one record parser.
type Stream struct {
	decoder
	closer  io.Closer
	name    string
	bo      binary.ByteOrder
	tsScale sim.Duration
	snapLen uint32
	count   int
	err     error // sticky terminal error (incl. io.EOF)

	bytes     int64 // bytes of well-formed input consumed (header + whole records)
	limit     int64 // 0 = unlimited; checked against bytes before each record body
	tornBytes int64 // bytes of the torn final record consumed before the cut
	reason    string
}

// Diag reports how a stream ended: how much well-formed input was
// consumed, how many bytes of a torn final record were read and then
// discarded, and a one-line reason when the stream stopped for anything
// other than a clean EOF. Callers surfacing a truncation warning (the
// service upload path, choirstream) render these instead of silently
// scoring the prefix.
type Diag struct {
	// Records is the number of whole records decoded.
	Records int
	// Bytes is the well-formed input consumed: the 24-byte global header
	// plus every complete record (16-byte header + body).
	Bytes int64
	// TornBytes counts bytes of the final, incomplete record that were
	// read before the stream ended — data dropped from scoring.
	TornBytes int64
	// Reason is empty for a clean EOF (or a still-active stream);
	// otherwise a short diagnosis: "torn record header", "torn record
	// body", "size limit exceeded", or the underlying read error.
	Reason string
}

// Diag returns the stream's end-of-input diagnostics (valid any time;
// final once Next has returned a terminal error).
func (s *Stream) Diag() Diag {
	return Diag{Records: s.count, Bytes: s.bytes, TornBytes: s.tornBytes, Reason: s.reason}
}

// SetLimit bounds the total bytes Next will consume (global header
// included). Once decoding the next record would cross the limit, Next
// fails with an error wrapping ErrLimit *before* reading the record
// body, so an oversized upload costs at most limit+16 bytes of reading.
// A limit of 0 (the default) is unlimited.
func (s *Stream) SetLimit(maxBytes int64) { s.limit = maxBytes }

// maxSnapLen caps the snaplen a foreign header can declare: record
// validation (and so the decoder's overflow buffer) never trusts more,
// so a corrupt header cannot ask Next to allocate gigabytes. Real tools
// write snaplens up to a few hundred KiB; 16 MiB is far beyond them.
const maxSnapLen = 1 << 24

// packetChunk packets share one allocation (256 × 80 B is the 20 KiB
// size class), so retaining one decoded packet pins at most that much.
const packetChunk = 256

// decoder is the allocation-free core both capture readers share:
// records are parsed where they lie in the read buffer and become
// packets handed out from chunks, which own no bytes of that buffer.
type decoder struct {
	br      *bufio.Reader
	pending int             // bytes of the last view, discarded by the next take
	big     []byte          // grown on demand for a record larger than the read buffer
	free    []packet.Packet // unused tail of the current chunk
}

// take consumes the next n bytes and returns a view of them, valid until
// the next take; input that ends first gives the short view and
// io.ErrUnexpectedEOF. io.EOF, a clean end, takes mid false and no byte read.
func (d *decoder) take(n int, mid bool) (b []byte, err error) {
	d.br.Discard(d.pending) // cannot fail: those bytes are buffered
	d.pending = 0
	if n > d.br.Size() {
		if cap(d.big) < n {
			d.big = make([]byte, n)
		}
		n, err = io.ReadFull(d.br, d.big[:n])
		b = d.big[:n]
	} else {
		b, err = d.br.Peek(n)
		d.pending = len(b)
	}
	if err == io.EOF && (mid || len(b) > 0) {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

// packet decodes one captured frame into the next chunk slot; a frame
// that does not parse, or that the capture truncated, is kept as noise.
func (d *decoder) packet(frame []byte, origLen uint32) *packet.Packet {
	if len(d.free) == 0 {
		d.free = make([]packet.Packet, packetChunk)
	}
	p := &d.free[0]
	d.free = d.free[1:]
	if err := packet.ParseFrameInto(p, frame); err != nil || uint32(len(frame)) < origLen {
		*p = packet.Packet{Kind: packet.KindNoise}
	}
	p.FrameLen = int(origLen) + packet.FCSLen
	return p
}

// NewStream parses the global pcap header from r and returns an iterator
// over its records. Nanosecond and microsecond captures are accepted in
// either byte order: files written on big-endian hosts carry the
// byte-swapped magics, and their headers and record fields are decoded
// with the detected order. Record bodies (the frames) are byte streams
// and need no swapping.
func NewStream(r io.Reader, name string) (*Stream, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("pcap: reading global header: %w: %w", ErrTruncated, err)
		}
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	magic := binary.LittleEndian.Uint32(hdr[0:4])
	var bo binary.ByteOrder = binary.LittleEndian
	var tsScale sim.Duration
	switch magic {
	case MagicNanos:
		tsScale = 1
	case MagicMicros:
		tsScale = sim.Microsecond
	case MagicNanosSwapped:
		bo, tsScale = binary.BigEndian, 1
	case MagicMicrosSwapped:
		bo, tsScale = binary.BigEndian, sim.Microsecond
	default:
		return nil, fmt.Errorf("pcap: unsupported magic %#08x", magic)
	}
	if lt := bo.Uint32(hdr[20:24]); lt != LinkTypeEthernet {
		return nil, fmt.Errorf("pcap: unsupported link type %d", lt)
	}
	// Honor the writer's declared snaplen when validating records: a
	// capture written at a larger snaplen than our default is a valid
	// foreign artifact, not corruption. Zero (written by some tools for
	// "maximum") and implausibly huge values fall back to the cap.
	snap := bo.Uint32(hdr[16:20])
	if snap == 0 || snap > maxSnapLen {
		snap = maxSnapLen
	}
	return &Stream{decoder: decoder{br: br}, name: name, bo: bo, tsScale: tsScale, snapLen: snap, bytes: 24}, nil
}

// OpenStream opens a pcap file for incremental reading. Close the stream
// to release the file handle.
func OpenStream(path string) (*Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := NewStream(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.closer = f
	return s, nil
}

// Name returns the stream's trial name.
func (s *Stream) Name() string { return s.name }

// Count returns how many records have been decoded so far.
func (s *Stream) Count() int { return s.count }

// Close releases the underlying file when the stream was opened with
// OpenStream; otherwise it is a no-op.
func (s *Stream) Close() error {
	if s.closer != nil {
		c := s.closer
		s.closer = nil
		return c.Close()
	}
	return nil
}

// Next decodes one record. It returns io.EOF at a clean record boundary
// and an error wrapping ErrTruncated when the stream ends mid-record.
// Unparseable or snap-truncated frames are returned as noise packets so
// counts line up with the capture, exactly like the batch Read. The
// packet stays valid for as long as the caller keeps it: it owns no bytes
// of the read buffer, and pins only its chunk of packetChunk packets.
func (s *Stream) Next() (*packet.Packet, sim.Time, error) {
	if s.err != nil {
		return nil, 0, s.err
	}
	rec, err := s.take(16, false)
	if err != nil {
		if errors.Is(err, io.EOF) {
			s.err = io.EOF
		} else if errors.Is(err, io.ErrUnexpectedEOF) {
			s.tornBytes = int64(len(rec))
			s.reason = fmt.Sprintf("torn record header (%d of 16 bytes after record %d)", len(rec), s.count)
			s.err = fmt.Errorf("pcap: record %d header: %w: %w", s.count, ErrTruncated, err)
		} else {
			s.reason = err.Error()
			s.err = fmt.Errorf("pcap: record %d header: %w", s.count, err)
		}
		return nil, 0, s.err
	}
	sec := s.bo.Uint32(rec[0:4])
	sub := s.bo.Uint32(rec[4:8])
	inclLen := s.bo.Uint32(rec[8:12])
	origLen := s.bo.Uint32(rec[12:16])
	if inclLen > s.snapLen {
		s.tornBytes = 16
		s.reason = fmt.Sprintf("record %d declares incl_len %d > snaplen %d", s.count, inclLen, s.snapLen)
		s.err = fmt.Errorf("pcap: record %d: incl_len %d exceeds snaplen %d", s.count, inclLen, s.snapLen)
		return nil, 0, s.err
	}
	if s.limit > 0 && s.bytes+16+int64(inclLen) > s.limit {
		s.tornBytes = 16
		s.reason = fmt.Sprintf("size limit exceeded (record %d would bring the stream to %d bytes, limit %d)",
			s.count, s.bytes+16+int64(inclLen), s.limit)
		s.err = fmt.Errorf("pcap: record %d: %w (%d bytes consumed, limit %d)", s.count, ErrLimit, s.bytes, s.limit)
		return nil, 0, s.err
	}
	frame, err := s.take(int(inclLen), true)
	if err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			s.tornBytes = 16 + int64(len(frame))
			s.reason = fmt.Sprintf("torn record body (%d of %d bytes in record %d)", len(frame), inclLen, s.count)
			s.err = fmt.Errorf("pcap: record %d body: %w: %w", s.count, ErrTruncated, err)
		} else {
			s.reason = err.Error()
			s.err = fmt.Errorf("pcap: record %d body: %w", s.count, err)
		}
		return nil, 0, s.err
	}
	s.count++
	s.bytes += 16 + int64(inclLen)
	return s.packet(frame, origLen), sim.Time(sec)*sim.Second + sim.Time(sub)*s.tsScale, nil
}
