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

// pcapng support: the block-structured successor format (used by modern
// capture stacks). Traces are written as one section with a single
// Ethernet interface at nanosecond resolution; readers tolerate unknown
// block types, multiple interfaces and the common per-interface
// timestamp-resolution option.

// Block type codes.
const (
	blockSHB = 0x0A0D0D0A
	blockIDB = 0x00000001
	blockEPB = 0x00000006
)

const (
	byteOrderMagic = 0x1A2B3C4D
	optEndOfOpt    = 0
	optIfTsresol   = 9
)

// WriteNG serializes the trace to w in pcapng format with nanosecond
// timestamps.
func WriteNG(w io.Writer, tr *trace.Trace, snapLen int) error {
	if snapLen <= 0 {
		snapLen = DefaultSnapLen
	}
	bw := bufio.NewWriterSize(w, 1<<16)

	writeBlock := func(btype uint32, body []byte) error {
		total := uint32(12 + len(body))
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], btype)
		binary.LittleEndian.PutUint32(hdr[4:8], total)
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := bw.Write(body); err != nil {
			return err
		}
		var tail [4]byte
		binary.LittleEndian.PutUint32(tail[:], total)
		_, err := bw.Write(tail[:])
		return err
	}

	// Section Header Block.
	shb := make([]byte, 16)
	binary.LittleEndian.PutUint32(shb[0:4], byteOrderMagic)
	binary.LittleEndian.PutUint16(shb[4:6], 1) // major
	binary.LittleEndian.PutUint16(shb[6:8], 0) // minor
	// Section length unknown: -1.
	binary.LittleEndian.PutUint64(shb[8:16], ^uint64(0))
	if err := writeBlock(blockSHB, shb); err != nil {
		return err
	}

	// Interface Description Block: Ethernet, ns resolution.
	idb := make([]byte, 8, 20)
	binary.LittleEndian.PutUint16(idb[0:2], LinkTypeEthernet)
	// reserved 2 bytes zero.
	binary.LittleEndian.PutUint32(idb[4:8], uint32(snapLen))
	// Option if_tsresol = 9 (10^-9 s), padded to 4 bytes.
	idb = append(idb,
		byte(optIfTsresol), 0, 1, 0, // code, len=1 (little endian)
		9, 0, 0, 0, // value + pad
		byte(optEndOfOpt), 0, 0, 0,
	)
	if err := writeBlock(blockIDB, idb); err != nil {
		return err
	}

	// Reused for every packet block: 8-byte block header, 20-byte EPB
	// fields, frame, padding, trailing length.
	var blk []byte
	for i, p := range tr.Packets {
		var err error
		if blk, err = p.AppendFrame(append(blk[:0], make([]byte, 28)...)); err != nil {
			return fmt.Errorf("pcapng: packet %d: %w", i, err)
		}
		origLen := len(blk) - 28
		inclLen := origLen
		if inclLen > snapLen {
			inclLen = snapLen
		}
		ts := uint64(tr.Times[i])
		pad := (4 - inclLen%4) % 4
		blk = append(blk[:28+inclLen], make([]byte, pad+4)...)
		total := uint32(len(blk))
		binary.LittleEndian.PutUint32(blk[0:4], blockEPB)
		binary.LittleEndian.PutUint32(blk[4:8], total)
		// interface id 0.
		binary.LittleEndian.PutUint32(blk[12:16], uint32(ts>>32))
		binary.LittleEndian.PutUint32(blk[16:20], uint32(ts))
		binary.LittleEndian.PutUint32(blk[20:24], uint32(inclLen))
		binary.LittleEndian.PutUint32(blk[24:28], uint32(origLen))
		binary.LittleEndian.PutUint32(blk[len(blk)-4:], total)
		if _, err := bw.Write(blk); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteNGFile writes a pcapng file at path.
func WriteNGFile(path string, tr *trace.Trace, snapLen int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteNG(f, tr, snapLen); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadNG parses a pcapng stream into a trace. Unknown block types are
// skipped; per-interface timestamp resolution is honoured.
func ReadNG(r io.Reader, name string) (*trace.Trace, error) {
	d := decoder{br: bufio.NewReaderSize(r, 1<<16)}
	tr := trace.New(name, 1024)
	// Per-interface timestamp scale in ns per unit.
	var ifScale []sim.Duration

	// readBlock returns a view of the block body, valid until the next
	// call, and io.EOF only for a stream that ends between blocks.
	readBlock := func() (uint32, []byte, error) {
		hdr, err := d.take(8, false)
		if err != nil {
			return 0, nil, err
		}
		btype := binary.LittleEndian.Uint32(hdr[0:4])
		total := binary.LittleEndian.Uint32(hdr[4:8])
		if total < 12 || total > 1<<26 {
			return 0, nil, fmt.Errorf("pcapng: implausible block length %d", total)
		}
		rest, err := d.take(int(total-8), true) // body and trailing length
		if err != nil {
			if len(rest) < int(total-12) {
				return 0, nil, fmt.Errorf("pcapng: block body: %w", err)
			}
			return 0, nil, fmt.Errorf("pcapng: block trailer: %w", err)
		}
		if binary.LittleEndian.Uint32(rest[total-12:]) != total {
			return 0, nil, errors.New("pcapng: trailing length mismatch")
		}
		return btype, rest[:total-12], nil
	}

	first := true
	for {
		btype, body, err := readBlock()
		if err != nil {
			if errors.Is(err, io.EOF) && !first {
				return tr, nil
			}
			if errors.Is(err, io.EOF) {
				return nil, errors.New("pcapng: empty stream")
			}
			return nil, err
		}
		if first {
			if btype != blockSHB {
				return nil, fmt.Errorf("pcapng: stream does not start with a section header (type %#08x)", btype)
			}
			if len(body) < 4 || binary.LittleEndian.Uint32(body[0:4]) != byteOrderMagic {
				return nil, errors.New("pcapng: unsupported byte order")
			}
			first = false
			continue
		}
		switch btype {
		case blockIDB:
			if len(body) < 8 {
				return nil, errors.New("pcapng: short interface block")
			}
			scale := sim.Duration(sim.Microsecond) // spec default 10^-6
			// Parse options for if_tsresol.
			opts := body[8:]
			for len(opts) >= 4 {
				code := binary.LittleEndian.Uint16(opts[0:2])
				olen := int(binary.LittleEndian.Uint16(opts[2:4]))
				padded := (olen + 3) / 4 * 4
				if len(opts) < 4+padded {
					break
				}
				if code == optEndOfOpt {
					break
				}
				if code == optIfTsresol && olen >= 1 {
					v := opts[4]
					if v&0x80 == 0 {
						scale = 1
						for i := uint8(0); i < 9-min8(v, 9); i++ {
							scale *= 10
						}
					}
				}
				opts = opts[4+padded:]
			}
			ifScale = append(ifScale, scale)
		case blockEPB:
			if len(body) < 20 {
				return nil, errors.New("pcapng: short packet block")
			}
			ifID := binary.LittleEndian.Uint32(body[0:4])
			tsHigh := binary.LittleEndian.Uint32(body[4:8])
			tsLow := binary.LittleEndian.Uint32(body[8:12])
			inclLen := binary.LittleEndian.Uint32(body[12:16])
			origLen := binary.LittleEndian.Uint32(body[16:20])
			if int(ifID) >= len(ifScale) {
				return nil, fmt.Errorf("pcapng: packet references unknown interface %d", ifID)
			}
			if len(body) < 20+int(inclLen) {
				return nil, errors.New("pcapng: packet data truncated")
			}
			scale := ifScale[ifID]
			ts := sim.Time(uint64(tsHigh)<<32|uint64(tsLow)) * scale
			tr.Append(d.packet(body[20:20+inclLen], origLen), ts)
		default:
			// Unknown block: skip (already consumed).
		}
	}
}

// ReadNGFile reads a pcapng file.
func ReadNGFile(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadNG(f, path)
}

func min8(a, b uint8) uint8 {
	if a < b {
		return a
	}
	return b
}

// ReadAny sniffs the stream's magic and dispatches to the classic pcap
// or pcapng reader.
func ReadAny(r io.Reader, name string) (*trace.Trace, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("pcap: sniffing format: %w", err)
	}
	switch binary.LittleEndian.Uint32(magic) {
	case blockSHB:
		return ReadNG(br, name)
	case MagicNanos, MagicMicros, MagicNanosSwapped, MagicMicrosSwapped:
		return Read(br, name)
	default:
		return nil, fmt.Errorf("pcap: unrecognized capture format (magic %#08x)", binary.LittleEndian.Uint32(magic))
	}
}

// ReadAnyFile reads a capture file in either format.
func ReadAnyFile(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAny(f, path)
}
