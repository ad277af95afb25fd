package packet

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSerializationTimeMatchesPaperRates(t *testing.T) {
	// 1400-byte frames: the paper reports 3.52 Mpps at 40 Gbps,
	// 6.97 Mpps at 80 Gbps and 8.9 Mpps at 100 Gbps.
	cases := []struct {
		gbps    float64
		wantPPS float64
		tolPct  float64
	}{
		{40, 3.52e6, 1.0},
		{80, 6.97e6, 1.5},
		{100, 8.9e6, 2.5},
	}
	for _, c := range cases {
		got := RateForPPS(1400, Gbps(c.gbps))
		rel := (got - c.wantPPS) / c.wantPPS * 100
		if rel > c.tolPct || rel < -c.tolPct {
			t.Errorf("RateForPPS(1400, %vG) = %.0f pps, want %.0f ±%.1f%%", c.gbps, got, c.wantPPS, c.tolPct)
		}
	}
}

func TestSerializationTimeValues(t *testing.T) {
	if got := SerializationTime(1400, Gbps(40)); got != 284 {
		t.Errorf("1400B @ 40G = %v, want 284ns", got)
	}
	if got := SerializationTime(1400, Gbps(100)); got != 114 {
		t.Errorf("1400B @ 100G = %v, want 114ns", got)
	}
}

func TestSerializationTimePanicsOnZeroBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero bandwidth")
		}
	}()
	SerializationTime(100, 0)
}

func TestTagRoundTrip(t *testing.T) {
	in := Tag{Replayer: 3, Stream: 9, Seq: 1234567890123}
	b := in.Marshal()
	out, ok := ParseTag(b[:])
	if !ok {
		t.Fatal("ParseTag rejected a valid tag")
	}
	if out != in {
		t.Fatalf("round trip %v != %v", out, in)
	}
}

func TestParseTagRejectsBadMagic(t *testing.T) {
	b := Tag{Seq: 1}.Marshal()
	b[0] ^= 0xFF
	if _, ok := ParseTag(b[:]); ok {
		t.Fatal("ParseTag accepted corrupted magic")
	}
}

func TestParseTagRejectsShort(t *testing.T) {
	if _, ok := ParseTag(make([]byte, TagSize-1)); ok {
		t.Fatal("ParseTag accepted short buffer")
	}
}

func TestParseTagUsesTrailer(t *testing.T) {
	// Tag must be read from the END of the buffer (it is a trailer).
	in := Tag{Replayer: 1, Stream: 2, Seq: 42}
	buf := make([]byte, 100)
	buf = AppendTag(buf, in)
	out, ok := ParseTag(buf)
	if !ok || out != in {
		t.Fatalf("trailer parse got %v ok=%v, want %v", out, ok, in)
	}
}

func TestQuickTagRoundTrip(t *testing.T) {
	f := func(r, s uint16, q uint64) bool {
		in := Tag{Replayer: r, Stream: s, Seq: q}
		b := in.Marshal()
		out, ok := ParseTag(b[:])
		return ok && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example data.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Fatalf("Checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	if got := Checksum([]byte{0xFF}); got != ^uint16(0xFF00) {
		t.Fatalf("odd-length checksum = %#04x", got)
	}
}

func TestIPv4HeaderRoundTrip(t *testing.T) {
	h := IPv4Header{
		TOS: 0x10, TotalLen: 1382, ID: 777, TTL: 64, Proto: ProtoUDP,
		Src: IPv4{10, 0, 0, 1}, Dst: IPv4{10, 0, 0, 2},
	}
	b := h.Marshal(nil)
	if len(b) != IPv4HeaderLen {
		t.Fatalf("marshalled length %d", len(b))
	}
	out, rest, err := ParseIPv4(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("unexpected trailing bytes: %d", len(rest))
	}
	if out != h {
		t.Fatalf("round trip %+v != %+v", out, h)
	}
}

func TestParseIPv4DetectsCorruption(t *testing.T) {
	h := IPv4Header{TotalLen: 100, TTL: 64, Proto: ProtoUDP}
	b := h.Marshal(nil)
	b[8] ^= 0x01 // flip a TTL bit
	if _, _, err := ParseIPv4(b); err == nil {
		t.Fatal("checksum corruption not detected")
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	h := EthernetHeader{
		Dst:       MACForNode(2, 0),
		Src:       MACForNode(1, 1),
		EtherType: EtherTypeIPv4,
	}
	b := h.Marshal(nil)
	out, rest, err := ParseEthernet(append(b, 0xAA))
	if err != nil {
		t.Fatal(err)
	}
	if out != h || len(rest) != 1 {
		t.Fatalf("round trip mismatch: %+v rest=%d", out, len(rest))
	}
}

func TestUDPRoundTrip(t *testing.T) {
	h := UDPHeader{SrcPort: 5001, DstPort: 9000, Length: 1000}
	out, rest, err := ParseUDP(h.Marshal(nil))
	if err != nil || out != h || len(rest) != 0 {
		t.Fatalf("udp round trip: %+v err=%v", out, err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	h := TCPHeader{SrcPort: 40000, DstPort: 5201, Seq: 1 << 30, Ack: 99, Flags: TCPFlagACK | TCPFlagPSH, Window: 4096}
	out, rest, err := ParseTCP(h.Marshal(nil))
	if err != nil || out != h || len(rest) != 0 {
		t.Fatalf("tcp round trip: %+v err=%v", out, err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	p := &Packet{
		Tag:      Tag{Replayer: 2, Stream: 1, Seq: 555},
		Kind:     KindData,
		FrameLen: 1400,
		Flow: FiveTuple{
			Src: IPForNode(1), Dst: IPForNode(3),
			SrcPort: 7000, DstPort: 7001, Proto: ProtoUDP,
		},
	}
	b, err := p.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 1400-FCSLen {
		t.Fatalf("frame length %d, want %d", len(b), 1400-FCSLen)
	}
	out, err := ParseFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Tag != p.Tag {
		t.Fatalf("tag %v != %v", out.Tag, p.Tag)
	}
	if out.Kind != KindData {
		t.Fatalf("kind %v, want data", out.Kind)
	}
	if out.FrameLen != p.FrameLen {
		t.Fatalf("frame len %d != %d", out.FrameLen, p.FrameLen)
	}
	if out.Flow != p.Flow {
		t.Fatalf("flow %v != %v", out.Flow, p.Flow)
	}
}

func TestInvalidFrameParsesAsNoise(t *testing.T) {
	p := &Packet{Kind: KindInvalid, FrameLen: 128, Flow: FiveTuple{Src: IPForNode(1), Dst: IPForNode(2)}}
	b, err := p.Frame()
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind == KindData {
		t.Fatal("invalid filler frame parsed as data")
	}
}

func TestNoiseFrameTCP(t *testing.T) {
	p := &Packet{
		Kind:     KindNoise,
		FrameLen: 1500,
		Tag:      Tag{Seq: 10},
		Flow:     FiveTuple{Src: IPForNode(5), Dst: IPForNode(6), SrcPort: 40001, DstPort: 5201, Proto: ProtoTCP},
	}
	b, err := p.Frame()
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != KindNoise {
		t.Fatalf("noise frame parsed as %v", out.Kind)
	}
	if out.Flow.Proto != ProtoTCP {
		t.Fatalf("proto %d, want TCP", out.Flow.Proto)
	}
}

func TestFrameTooSmall(t *testing.T) {
	p := &Packet{Kind: KindData, FrameLen: MinDataFrameLen - 1}
	if _, err := p.Frame(); err == nil {
		t.Fatal("expected error for undersized frame")
	}
}

func TestQuickFrameRoundTripTags(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(r, s uint16, q uint64) bool {
		p := &Packet{
			Tag:      Tag{Replayer: r, Stream: s, Seq: q},
			Kind:     KindData,
			FrameLen: MinDataFrameLen + rng.Intn(1400),
			Flow:     FiveTuple{Src: IPForNode(1), Dst: IPForNode(2), SrcPort: 1, DstPort: 2, Proto: ProtoUDP},
		}
		b, err := p.Frame()
		if err != nil {
			return false
		}
		out, err := ParseFrame(b)
		return err == nil && out.Tag == p.Tag && out.FrameLen == p.FrameLen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	p := &Packet{Tag: Tag{Seq: 1}, FrameLen: 100}
	q := p.Clone()
	q.Tag.Seq = 2
	if p.Tag.Seq != 1 {
		t.Fatal("Clone shares state with original")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindData: "data", KindNoise: "noise", KindControl: "control", KindInvalid: "invalid", Kind(9): "kind(9)",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestAddressHelpers(t *testing.T) {
	if IPForNode(0x0102).String() != "10.0.1.2" {
		t.Errorf("IPForNode = %v", IPForNode(0x0102))
	}
	m := MACForNode(7, 1)
	if m.String() != "02:c4:00:07:01:01" {
		t.Errorf("MACForNode = %v", m)
	}
}

func TestWireBytes(t *testing.T) {
	if WireBytes(1400) != 1420 {
		t.Fatalf("WireBytes(1400) = %d, want 1420 (preamble+SFD+IFG)", WireBytes(1400))
	}
}

func TestControlFrameRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	p := &Packet{
		Tag:      Tag{Replayer: 0xFFFD, Seq: 3},
		Kind:     KindControl,
		FrameLen: 128,
		Flow: FiveTuple{
			Src: IPForNode(1), Dst: IPForNode(2),
			SrcPort: ControlPort, DstPort: ControlPort, Proto: ProtoUDP,
		},
		Control: payload,
	}
	b, err := p.Frame()
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != KindControl {
		t.Fatalf("kind %v, want control", out.Kind)
	}
	if string(out.Control) != string(payload) {
		t.Fatalf("control payload %v, want %v", out.Control, payload)
	}
}

func TestControlPayloadTooBig(t *testing.T) {
	p := &Packet{
		Kind:     KindControl,
		FrameLen: MinDataFrameLen + 4,
		Flow:     FiveTuple{DstPort: ControlPort, Proto: ProtoUDP},
		Control:  make([]byte, 100),
	}
	if _, err := p.Frame(); err == nil {
		t.Fatal("oversized control payload accepted")
	}
}

func TestDataFrameOnControlPortStaysControl(t *testing.T) {
	// A tagged frame addressed to the control port is classified as
	// control even if its payload is not parseable; Control stays nil.
	p := &Packet{
		Tag: Tag{Seq: 9}, Kind: KindData, FrameLen: 128,
		Flow: FiveTuple{Src: IPForNode(1), Dst: IPForNode(2), DstPort: ControlPort, Proto: ProtoUDP},
	}
	b, err := p.Frame()
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != KindControl {
		t.Fatalf("kind %v", out.Kind)
	}
}

// TestAppendFrameMatchesFrame: appending behind existing bytes — also
// into a dirty, reused buffer — produces exactly Frame()'s bytes and
// leaves the prefix alone; a packet that cannot be framed returns dst
// as it was.
func TestAppendFrameMatchesFrame(t *testing.T) {
	dirty := bytes.Repeat([]byte{0xAA}, 2048)
	for _, p := range []*Packet{
		{Tag: Tag{Replayer: 1, Seq: 7}, Kind: KindData, FrameLen: 1400,
			Flow: FiveTuple{Src: IPForNode(1), Dst: IPForNode(2), SrcPort: 7000, DstPort: 7001, Proto: ProtoUDP}},
		{Tag: Tag{Seq: 8}, Kind: KindControl, FrameLen: 128, Control: []byte("cmd"),
			Flow: FiveTuple{Src: IPForNode(1), Dst: IPForNode(2), DstPort: ControlPort, Proto: ProtoUDP}},
		{Tag: Tag{Seq: 9}, Kind: KindNoise, FrameLen: 200,
			Flow: FiveTuple{Src: IPForNode(3), Dst: IPForNode(4), Proto: ProtoTCP}},
		{Kind: KindInvalid, FrameLen: MinDataFrameLen},
	} {
		want, err := p.Frame()
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.AppendFrame(append(dirty[:0], "prefix"...))
		if err != nil {
			t.Fatal(err)
		}
		if string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want) {
			t.Fatalf("%v: AppendFrame into a reused buffer differs from Frame()", p)
		}
	}
	short := &Packet{FrameLen: MinDataFrameLen - 1}
	if got, err := short.AppendFrame([]byte("keep")); err == nil || string(got) != "keep" {
		t.Fatalf("unframeable packet: dst %q, err %v", got, err)
	}
}

// TestParseFrameIntoOverwrites: a chunk slot is reused memory, so every
// field of the previous occupant must be gone, and the parsed packet
// must hold no view of the frame bytes.
func TestParseFrameIntoOverwrites(t *testing.T) {
	ctl := &Packet{Tag: Tag{Seq: 8}, Kind: KindControl, FrameLen: 128, Control: []byte("cmd"),
		Flow: FiveTuple{Src: IPForNode(1), Dst: IPForNode(2), DstPort: ControlPort, Proto: ProtoUDP}}
	b, err := ctl.Frame()
	if err != nil {
		t.Fatal(err)
	}
	slot := Packet{Tag: Tag{Replayer: 5, Stream: 6, Seq: 7}, SentAt: 99, Control: []byte("stale"), FrameLen: 1}
	if err := ParseFrameInto(&slot, b); err != nil {
		t.Fatal(err)
	}
	want, err := ParseFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = 0xEE // the reader moves on
	}
	if !reflect.DeepEqual(&slot, want) || string(slot.Control) != "cmd" {
		t.Fatalf("slot %+v, want %+v", slot, *want)
	}
}
