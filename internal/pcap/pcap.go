// Package pcap reads and writes libpcap capture files, the artifact
// format the paper's analysis pipeline consumes. Both the classic
// microsecond format and the nanosecond-timestamp variant are supported;
// traces are written in the nanosecond format since the consistency
// metrics operate at nanosecond resolution.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/sim"
	"repro/internal/trace"
)

// File-format constants.
const (
	// MagicNanos marks a little-endian pcap file with nanosecond
	// timestamp resolution.
	MagicNanos = 0xA1B23C4D
	// MagicMicros marks a little-endian pcap file with microsecond
	// resolution.
	MagicMicros = 0xA1B2C3D4
	// MagicNanosSwapped and MagicMicrosSwapped are the same magics as
	// read from a capture written on a big-endian host: every header
	// and record field in such a file is byte-swapped relative to ours,
	// and the reader decodes them with big-endian order.
	MagicNanosSwapped  = 0x4D3CB2A1
	MagicMicrosSwapped = 0xD4C3B2A1
	// LinkTypeEthernet is DLT_EN10MB.
	LinkTypeEthernet = 1

	versionMajor = 2
	versionMinor = 4
)

// DefaultSnapLen captures full frames; Choir's analysis needs the
// trailing 16-byte tag, so truncating captures below the frame size
// degrades packets to noise on re-read.
const DefaultSnapLen = 65535

// Write serializes the trace to w in nanosecond pcap format. Frames
// longer than snapLen are truncated in the file (incl_len < orig_len),
// exactly as a real capture would.
func Write(w io.Writer, tr *trace.Trace, snapLen int) error {
	if snapLen <= 0 {
		snapLen = DefaultSnapLen
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], MagicNanos)
	binary.LittleEndian.PutUint16(hdr[4:6], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], versionMinor)
	// thiszone, sigfigs left zero.
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(snapLen))
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}

	// One reused buffer holds each record: 16-byte header, then the frame.
	var rec []byte
	for i, p := range tr.Packets {
		var err error
		if rec, err = p.AppendFrame(append(rec[:0], make([]byte, 16)...)); err != nil {
			return fmt.Errorf("pcap: packet %d: %w", i, err)
		}
		origLen := len(rec) - 16
		inclLen := origLen
		if inclLen > snapLen {
			inclLen = snapLen
		}
		ts := tr.Times[i]
		binary.LittleEndian.PutUint32(rec[0:4], uint32(ts/sim.Second))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(ts%sim.Second))
		binary.LittleEndian.PutUint32(rec[8:12], uint32(inclLen))
		binary.LittleEndian.PutUint32(rec[12:16], uint32(origLen))
		if _, err := bw.Write(rec[:16+inclLen]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes the trace to a pcap file at path.
func WriteFile(path string, tr *trace.Trace, snapLen int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, tr, snapLen); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read parses a pcap stream back into a trace. Unparseable or truncated
// frames are kept as noise packets so counts still line up with the
// original capture.
//
// When the stream ends mid-record — an in-progress or cut-off capture —
// Read returns the packets parsed so far *alongside* an error wrapping
// ErrTruncated, so streaming callers can keep the prefix while batch
// callers still see the failure.
func Read(r io.Reader, name string) (*trace.Trace, error) {
	s, err := NewStream(r, name)
	if err != nil {
		return nil, err
	}
	tr := trace.New(name, 1024)
	for {
		p, ts, err := s.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return tr, nil
			}
			return tr, err
		}
		tr.Append(p, ts)
	}
}

// ReadFile reads a pcap file at path into a trace named after the file.
func ReadFile(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, path)
}
