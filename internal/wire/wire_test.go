package wire

import (
	"bytes"
	"io"
	"testing"

	"canely/internal/bus"
	"canely/internal/can"
)

// roundTripMsgs enumerates one message per kind with every meaningful field
// populated.
func roundTripMsgs() []Msg {
	var f can.Frame
	f.ID = can.DataSign(3, 7, 42).Encode()
	f.SetPayload([]byte{0xCA, 0xFE, 0x01})
	rtr := can.Frame{ID: can.FDASign(9).Encode(), RTR: true, DLC: 0}
	return []Msg{
		{Kind: KindHello, Node: 63},
		{Kind: KindHello, Node: 9, Role: RoleGateway},
		{Kind: KindDigest, Seg: 1, Node: 9, View: can.MakeSet(0, 1)},
		{Kind: KindWelcome, Rate: can.Rate125Kbps},
		{Kind: KindRequest, Frame: f},
		{Kind: KindRequest, Frame: rtr},
		{Kind: KindAbort, ID: f.ID},
		{Kind: KindCrash},
		{Kind: KindFrame, Frame: f, Own: true},
		{Kind: KindFrame, Frame: rtr},
		{Kind: KindConfirm, Frame: f},
		{Kind: KindState, State: bus.ErrorPassive, TEC: 136, REC: 3},
		{Kind: KindState, State: bus.BusOff, TEC: 256},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, m := range roundTripMsgs() {
		var b [MsgSize]byte
		m.Encode(&b)
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("%v: decode: %v", m.Kind, err)
		}
		if got != m {
			t.Fatalf("%v round trip:\n got %+v\nwant %+v", m.Kind, got, m)
		}
	}
}

func TestStreamReadWrite(t *testing.T) {
	msgs := roundTripMsgs()
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := Write(&buf, m); err != nil {
			t.Fatalf("write %v: %v", m.Kind, err)
		}
	}
	if buf.Len() != len(msgs)*MsgSize {
		t.Fatalf("stream length %d, want %d", buf.Len(), len(msgs)*MsgSize)
	}
	for _, want := range msgs {
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("read %v: %v", want.Kind, err)
		}
		if got != want {
			t.Fatalf("stream round trip: got %+v want %+v", got, want)
		}
	}
	if _, err := Read(&buf); err != io.EOF {
		t.Fatalf("read past end: %v, want io.EOF", err)
	}
}

func TestDecodeRejectsMalformedRecords(t *testing.T) {
	for name, rec := range malformedRecords() {
		if _, err := Decode(rec); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// FuzzWireDecode: the broker decodes every record a client sends, so no
// byte string may panic the reader, a truncated record must fail, and a
// record Decode accepts must survive Encode → Decode unchanged.
func FuzzWireDecode(f *testing.F) {
	for _, m := range roundTripMsgs() {
		var b [MsgSize]byte
		m.Encode(&b)
		f.Add(b[:])
	}
	for _, b := range malformedRecords() {
		f.Add(b[:])
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		m, err := Read(bytes.NewReader(rec))
		if err != nil {
			return
		}
		if len(rec) < MsgSize {
			t.Fatalf("read a message from a %d-byte record", len(rec))
		}
		var b [MsgSize]byte
		m.Encode(&b)
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("%+v re-encodes to a rejected record: %v", m, err)
		}
		if got != m {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, m)
		}
	})
}

// malformedRecords holds one record per rejection rule of Decode.
func malformedRecords() map[string][MsgSize]byte {
	cases := map[string][MsgSize]byte{}

	var b [MsgSize]byte
	Msg{Kind: KindHello, Node: 1}.Encode(&b)
	b[1] = Version + 1
	cases["hello version"] = b

	Msg{Kind: KindHello}.Encode(&b)
	b[2] = can.MaxNodes
	cases["hello node id"] = b

	Msg{Kind: KindWelcome, Rate: can.Rate1Mbps}.Encode(&b)
	b[1] = Version + 1
	cases["welcome version"] = b

	cases["zero rate"] = func() [MsgSize]byte {
		var b [MsgSize]byte
		Msg{Kind: KindWelcome}.Encode(&b)
		return b
	}()

	cases["unknown kind"] = [MsgSize]byte{0xEE}

	cases["oversized DLC"] = func() [MsgSize]byte {
		var b [MsgSize]byte
		Msg{Kind: KindRequest, Frame: can.Frame{ID: 1}}.Encode(&b)
		b[6] = can.MaxData + 1
		return b
	}()

	cases["bad state"] = func() [MsgSize]byte {
		var b [MsgSize]byte
		Msg{Kind: KindState}.Encode(&b)
		b[1] = 99
		return b
	}()

	cases["bad hello role"] = func() [MsgSize]byte {
		var b [MsgSize]byte
		Msg{Kind: KindHello, Node: 1}.Encode(&b)
		b[3] = byte(RoleTap) + 1
		return b
	}()

	cases["bad digest segment"] = func() [MsgSize]byte {
		var b [MsgSize]byte
		Msg{Kind: KindDigest, Seg: 1, Node: 9}.Encode(&b)
		b[1] = can.MaxNodes
		return b
	}()

	return cases
}
