package pcap

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"testing"

	"repro/internal/packet"
)

func TestNGRoundTrip(t *testing.T) {
	tr := sampleTrace(100)
	var buf bytes.Buffer
	if err := WriteNG(&buf, tr, 0); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNG(&buf, "ng")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("read %d packets, want %d", got.Len(), tr.Len())
	}
	for i := range tr.Packets {
		if got.Times[i] != tr.Times[i] {
			t.Fatalf("packet %d: time %v, want %v (ns resolution lost?)", i, got.Times[i], tr.Times[i])
		}
		if got.Packets[i].Tag != tr.Packets[i].Tag {
			t.Fatalf("packet %d: tag mismatch", i)
		}
	}
}

func TestNGFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.pcapng")
	tr := sampleTrace(20)
	if err := WriteNGFile(path, tr, 0); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNGFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 20 {
		t.Fatalf("read %d", got.Len())
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNGTruncatedFramesBecomeNoise(t *testing.T) {
	tr := sampleTrace(5)
	var buf bytes.Buffer
	if err := WriteNG(&buf, tr, 64); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNG(&buf, "trunc")
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range got.Packets {
		if p.Kind == packet.KindData {
			t.Fatalf("packet %d: truncated frame parsed as data", i)
		}
		if p.FrameLen != 256 {
			t.Fatalf("packet %d: orig len lost: %d", i, p.FrameLen)
		}
	}
}

func TestNGSkipsUnknownBlocks(t *testing.T) {
	tr := sampleTrace(3)
	var buf bytes.Buffer
	if err := WriteNG(&buf, tr, 0); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Inject an unknown block (type 0x0BAD) right after the SHB+IDB.
	// SHB total = 12+16=28; IDB total = 12+20=32.
	insertAt := 28 + 32
	unknown := make([]byte, 16)
	binary.LittleEndian.PutUint32(unknown[0:4], 0x0BAD)
	binary.LittleEndian.PutUint32(unknown[4:8], 16)
	binary.LittleEndian.PutUint32(unknown[12:16], 16)
	mut := append(append(append([]byte{}, raw[:insertAt]...), unknown...), raw[insertAt:]...)
	got, err := ReadNG(bytes.NewReader(mut), "unk")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("read %d packets through unknown block", got.Len())
	}
}

func TestNGMicrosecondInterface(t *testing.T) {
	// An IDB without if_tsresol defaults to microseconds; timestamps
	// must scale up to ns.
	tr := sampleTrace(2)
	var buf bytes.Buffer
	if err := WriteNG(&buf, tr, 0); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Rewrite the IDB to have no options: replace block with a minimal
	// one of the same length? Simpler: flip the tsresol value to 6.
	// The IDB starts at offset 28; option value byte sits at
	// 28+8(header)+8(idb fixed)+4(opt hdr) = 48.
	if raw[48] != 9 {
		t.Fatalf("test assumption broken: tsresol byte = %d", raw[48])
	}
	raw[48] = 6
	// Scale the stored timestamps down from ns to µs: EPB ts fields.
	// Rather than hand-editing, verify semantics: reading must multiply
	// by 1000.
	got, err := ReadNG(bytes.NewReader(raw), "us")
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Times {
		if got.Times[i] != tr.Times[i]*1000 {
			t.Fatalf("time %v, want %v×1000", got.Times[i], tr.Times[i])
		}
	}
}

func TestNGRejectsGarbage(t *testing.T) {
	if _, err := ReadNG(bytes.NewReader(nil), "e"); err == nil {
		t.Fatal("empty stream accepted")
	}
	if _, err := ReadNG(bytes.NewReader(make([]byte, 64)), "z"); err == nil {
		t.Fatal("zero garbage accepted")
	}
	// Classic pcap magic is not pcapng.
	var buf bytes.Buffer
	if err := Write(&buf, sampleTrace(1), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadNG(&buf, "classic"); err == nil {
		t.Fatal("classic pcap accepted by pcapng reader")
	}
}

func TestNGTrailerMismatchRejected(t *testing.T) {
	tr := sampleTrace(1)
	var buf bytes.Buffer
	if err := WriteNG(&buf, tr, 0); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xFF // corrupt the last trailing length
	if _, err := ReadNG(bytes.NewReader(raw), "bad"); err == nil {
		t.Fatal("corrupted trailer accepted")
	}
}

func TestReadAnyDispatch(t *testing.T) {
	tr := sampleTrace(4)
	var classic, ng bytes.Buffer
	if err := Write(&classic, tr, 0); err != nil {
		t.Fatal(err)
	}
	if err := WriteNG(&ng, tr, 0); err != nil {
		t.Fatal(err)
	}
	for _, buf := range []*bytes.Buffer{&classic, &ng} {
		got, err := ReadAny(bytes.NewReader(buf.Bytes()), "any")
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 4 {
			t.Fatalf("ReadAny read %d packets", got.Len())
		}
	}
	if _, err := ReadAny(bytes.NewReader([]byte{9, 9, 9, 9, 9}), "bad"); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadAny(bytes.NewReader(nil), "empty"); err == nil {
		t.Fatal("empty accepted")
	}
}

// TestNGCutInsideBlockRejected: a pcapng stream is complete only when it
// ends between blocks. A cut exactly after a block header, or exactly
// before the trailing length, reads zero bytes at EOF like a clean end
// does, and must still be refused.
func TestNGCutInsideBlockRejected(t *testing.T) {
	raw := encode(t, WriteNG, sampleTrace(3), 0)
	const block = 8 + 20 + 252 + 4 // one packet block of the sample trace
	for _, cut := range []int{1, 4, 100, block - 8, block - 3} {
		if got, err := ReadNG(bytes.NewReader(raw[:len(raw)-cut]), "cut"); err == nil {
			t.Fatalf("stream cut %d bytes before its end read as complete (%d packets)", cut, got.Len())
		}
	}
	got, err := ReadNG(bytes.NewReader(raw[:len(raw)-block]), "whole")
	if err != nil || got.Len() != 2 {
		t.Fatalf("stream ending on a block boundary: %d packets, err %v", got.Len(), err)
	}
}
