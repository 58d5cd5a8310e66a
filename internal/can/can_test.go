package can

import (
	"testing"
	"testing/quick"
)

func TestMIDEncodeDecodeRoundTrip(t *testing.T) {
	mids := []MID{
		FDASign(3),
		ELSSign(63),
		JoinSign(0),
		LeaveSign(17),
		RHASign(32, 5),
		DataSign(9, 12, 200),
	}
	for _, m := range mids {
		id := m.Encode()
		if id > MaxID {
			t.Fatalf("%v encodes to %#x > 29 bits", m, id)
		}
		got, err := DecodeMID(id)
		if err != nil {
			t.Fatalf("DecodeMID(%v): %v", m, err)
		}
		if got != m {
			t.Fatalf("round trip: got %+v want %+v", got, m)
		}
	}
}

func TestMIDRoundTripProperty(t *testing.T) {
	prop := func(typ, param, src, ref uint8) bool {
		m := MID{
			Type:  MsgType(typ%uint8(maxMsgType)) + 1,
			Param: param,
			Src:   NodeID(src % MaxNodes),
			Ref:   ref,
		}
		got, err := DecodeMID(m.Encode())
		return err == nil && got == m
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMIDPriorityOrdering(t *testing.T) {
	// Protocol control traffic must win arbitration over application data.
	fda := FDASign(63).Encode()
	rha := RHASign(1, 63).Encode()
	els := ELSSign(63).Encode()
	data := DataSign(0, 0, 0).Encode()
	if fda >= rha || rha >= els || els >= data {
		t.Fatalf("priority inversion: FDA=%#x RHA=%#x ELS=%#x DATA=%#x", fda, rha, els, data)
	}
}

func TestRHACardinalityPriority(t *testing.T) {
	// Larger RHV cardinality must win arbitration (lower identifier) so the
	// convergence toward intersections proceeds from the richest vectors.
	big := RHASign(40, 1).Encode()
	small := RHASign(3, 1).Encode()
	if big >= small {
		t.Fatalf("RHA(#40)=%#x should outrank RHA(#3)=%#x", big, small)
	}
	if got := RHACardinality(RHASign(40, 1)); got != 40 {
		t.Fatalf("RHACardinality = %d, want 40", got)
	}
}

func TestDecodeMIDRejectsGarbage(t *testing.T) {
	if _, err := DecodeMID(1 << 29); err == nil {
		t.Fatal("identifier over 29 bits should be rejected")
	}
	if _, err := DecodeMID(0); err == nil {
		t.Fatal("type 0 should be rejected")
	}
	bad := MID{Type: maxMsgType + 1}.Encode()
	if _, err := DecodeMID(bad); err == nil {
		t.Fatal("unknown type should be rejected")
	}
}

func TestFrameValidate(t *testing.T) {
	f := Frame{ID: MaxID, DLC: 8}
	if err := f.Validate(); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	if err := (Frame{ID: MaxID + 1}).Validate(); err == nil {
		t.Fatal("oversized identifier accepted")
	}
	if err := (Frame{DLC: 9}).Validate(); err == nil {
		t.Fatal("oversized DLC accepted")
	}
}

func TestFramePayload(t *testing.T) {
	var f Frame
	f.SetPayload([]byte{1, 2, 3})
	if f.DLC != 3 {
		t.Fatalf("DLC = %d", f.DLC)
	}
	p := f.Payload()
	if len(p) != 3 || p[0] != 1 || p[2] != 3 {
		t.Fatalf("payload = %v", p)
	}
	f.RTR = true
	if f.Payload() != nil {
		t.Fatal("remote frame payload should be nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("oversized payload should panic")
		}
	}()
	f.SetPayload(make([]byte, 9))
}

func TestSameWireClustering(t *testing.T) {
	a := Frame{ID: FDASign(3).Encode(), RTR: true}
	b := Frame{ID: FDASign(3).Encode(), RTR: true}
	c := Frame{ID: FDASign(4).Encode(), RTR: true}
	d := Frame{ID: FDASign(3).Encode()}
	if !a.SameWire(b) {
		t.Fatal("identical remote frames must cluster")
	}
	if a.SameWire(c) {
		t.Fatal("different identifiers must not cluster")
	}
	if a.SameWire(d) || d.SameWire(d) {
		t.Fatal("data frames must never cluster")
	}
}

func TestNodeSetBasics(t *testing.T) {
	s := MakeSet(1, 5, 63)
	if !s.Contains(5) || s.Contains(2) {
		t.Fatal("Contains wrong")
	}
	if s.Count() != 3 {
		t.Fatalf("Count = %d", s.Count())
	}
	s = s.Remove(5)
	if s.Contains(5) || s.Count() != 2 {
		t.Fatal("Remove wrong")
	}
	ids := MakeSet(7, 3, 1).IDs()
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 3 || ids[2] != 7 {
		t.Fatalf("IDs = %v", ids)
	}
	if got := MakeSet(0, 3).String(); got != "{n00,n03}" {
		t.Fatalf("String = %q", got)
	}
	if EmptySet.String() != "{}" {
		t.Fatal("empty String")
	}
}

func TestNodeSetAlgebra(t *testing.T) {
	a := MakeSet(1, 2, 3)
	b := MakeSet(3, 4)
	if got := a.Union(b); got != MakeSet(1, 2, 3, 4) {
		t.Fatalf("Union = %v", got)
	}
	if got := a.Intersect(b); got != MakeSet(3) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := a.Diff(b); got != MakeSet(1, 2) {
		t.Fatalf("Diff = %v", got)
	}
	if !MakeSet(1).SubsetOf(a) || b.SubsetOf(a) {
		t.Fatal("SubsetOf wrong")
	}
	if RangeSet(0, 4) != MakeSet(0, 1, 2, 3) {
		t.Fatal("RangeSet wrong")
	}
}

func TestNodeSetBytesRoundTrip(t *testing.T) {
	prop := func(v uint64) bool {
		s := NodeSet(v)
		got, err := SetFromBytes(s.Bytes())
		return err == nil && got == s
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if _, err := SetFromBytes([]byte{1, 2, 3}); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestNodeSetAlgebraProperties(t *testing.T) {
	prop := func(x, y, z uint64) bool {
		a, b, c := NodeSet(x), NodeSet(y), NodeSet(z)
		// Intersection distributes over union; diff/containment laws.
		if a.Intersect(b.Union(c)) != a.Intersect(b).Union(a.Intersect(c)) {
			return false
		}
		if !a.Intersect(b).SubsetOf(a) {
			return false
		}
		if !a.Diff(b).SubsetOf(a) || !a.Diff(b).Intersect(b).Empty() {
			return false
		}
		return a.Union(b).Count() == a.Count()+b.Count()-a.Intersect(b).Count()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBitRate(t *testing.T) {
	if Rate1Mbps.BitTime() != 1000 { // 1 µs in ns
		t.Fatalf("bit time = %v", Rate1Mbps.BitTime())
	}
	if Rate50Kbps.BitTime() != 20000 {
		t.Fatalf("50k bit time = %v", Rate50Kbps.BitTime())
	}
	if Rate1Mbps.DurationOf(100) != 100*Rate1Mbps.BitTime() {
		t.Fatal("DurationOf wrong")
	}
	if Rate1Mbps.Bits(Rate1Mbps.DurationOf(55)) != 55 {
		t.Fatal("Bits inversion wrong")
	}
}

func TestFrameSizing(t *testing.T) {
	// Standard data frame, 0 bytes: 44 nominal, 8 worst-case stuff bits.
	if got := NominalFrameBits(FormatStandard, 0); got != 44 {
		t.Fatalf("std nominal(0) = %d", got)
	}
	if got := MaxStuffBits(FormatStandard, 0); got != 8 {
		t.Fatalf("std stuff(0) = %d", got)
	}
	// Standard 8-byte: 108 nominal, stuffable 98 -> 24 stuff.
	if got := NominalFrameBits(FormatStandard, 8); got != 108 {
		t.Fatalf("std nominal(8) = %d", got)
	}
	if got := MaxStuffBits(FormatStandard, 8); got != 24 {
		t.Fatalf("std stuff(8) = %d", got)
	}
	// Extended 8-byte: 128 nominal, stuffable 118 -> 29 stuff.
	if got := NominalFrameBits(FormatExtended, 8); got != 128 {
		t.Fatalf("ext nominal(8) = %d", got)
	}
	if got := MaxStuffBits(FormatExtended, 8); got != 29 {
		t.Fatalf("ext stuff(8) = %d", got)
	}
	if got := WorstFrameBits(FormatExtended, 8); got != 157 {
		t.Fatalf("ext worst(8) = %d", got)
	}
	if got := WorstSlotBits(FormatExtended, 8); got != 160 {
		t.Fatalf("ext slot(8) = %d", got)
	}
}

func TestFrameBitsRemoteIgnoresDLC(t *testing.T) {
	rtr := Frame{ID: 1 << midTypeShift, RTR: true, DLC: 8}
	data := Frame{ID: 1 << midTypeShift, DLC: 8}
	if FrameBits(rtr) >= FrameBits(data) {
		t.Fatal("remote frame must be shorter than same-DLC data frame")
	}
	if FrameBits(rtr) != WorstFrameBits(FormatExtended, 0) {
		t.Fatal("remote frame size must ignore the data field")
	}
}

func TestTxAndSlotTime(t *testing.T) {
	f := Frame{ID: ELSSign(1).Encode(), RTR: true}
	if TxTime(f, Rate1Mbps) != Rate1Mbps.DurationOf(FrameBits(f)) {
		t.Fatal("TxTime wrong")
	}
	if SlotTime(f, Rate1Mbps)-TxTime(f, Rate1Mbps) != Rate1Mbps.DurationOf(InterframeBits) {
		t.Fatal("SlotTime must add the interframe space")
	}
}

func TestFrameString(t *testing.T) {
	f := Frame{ID: FDASign(7).Encode(), RTR: true}
	if got := f.String(); got != "rtr FDA(n07) dlc=0" {
		t.Fatalf("String = %q", got)
	}
}

func TestNodeIDValid(t *testing.T) {
	if !NodeID(63).Valid() || NodeID(64).Valid() {
		t.Fatal("Valid wrong")
	}
	if NodeID(7).String() != "n07" {
		t.Fatal("String wrong")
	}
}

func TestSignConstructors(t *testing.T) {
	cases := []struct {
		mid  MID
		want MID
	}{
		{RingSign(3, 1), MID{Type: TypeRing, Param: 3, Src: 1}},
		{GuardSign(5), MID{Type: TypeGuard, Param: 5}},
		{GuardReplySign(5), MID{Type: TypeGuard, Param: 5, Src: 5, Ref: 1}},
		{RBSign(2, 4, 9), MID{Type: TypeRB, Param: 2, Src: 4, Ref: 9}},
		{RelSign(2, 4, 9), MID{Type: TypeRel, Param: 2, Src: 4, Ref: 9}},
		{RelSign(2, 4, 9|RelConfirmFlag), MID{Type: TypeRel, Param: 2, Src: 4, Ref: 9}},
		{RelConfirmSign(2, 9), MID{Type: TypeRel, Param: 2, Ref: 9 | RelConfirmFlag}},
		{SyncSign(7, 0), MID{Type: TypeSync, Param: 7}},
		{FollowUpSign(7, 0), MID{Type: TypeSync, Param: 7, Ref: 1}},
	}
	for i, c := range cases {
		if c.mid != c.want {
			t.Fatalf("case %d: got %+v want %+v", i, c.mid, c.want)
		}
		// Every constructor must produce a valid, round-trippable mid.
		got, err := DecodeMID(c.mid.Encode())
		if err != nil || got != c.mid {
			t.Fatalf("case %d: round trip failed: %v %v", i, got, err)
		}
	}
}

func TestMsgTypeStringsAll(t *testing.T) {
	want := map[MsgType]string{
		TypeFDA: "FDA", TypeRHA: "RHA", TypeJoin: "JOIN", TypeLeave: "LEAVE",
		TypeELS: "ELS", TypeData: "DATA", TypeRing: "RING", TypeGuard: "GUARD",
		TypeRB: "RB", TypeSync: "SYNC", TypeRel: "REL",
	}
	for typ, s := range want {
		if typ.String() != s {
			t.Fatalf("String(%d) = %q, want %q", typ, typ.String(), s)
		}
	}
	if MsgType(99).String() != "type(99)" {
		t.Fatal("unknown type String wrong")
	}
}

func TestMIDStringForms(t *testing.T) {
	for mid, want := range map[MID]string{
		FDASign(3):           "FDA(n03)",
		ELSSign(4):           "ELS(n04)",
		JoinSign(5):          "JOIN(n05)",
		LeaveSign(6):         "LEAVE(n06)",
		RHASign(10, 2):       "RHA(#10)@n02",
		DataSign(1, 2, 3):    "DATA[1]@n02#3",
		RingSign(1, 2):       "RING[1]@n02#0",
		GuardSign(1):         "GUARD[1]@n00#0",
		RBSign(1, 2, 3):      "RB[1]@n02#3",
		SyncSign(1, 2):       "SYNC[1]@n02#0",
		RelConfirmSign(1, 2): "REL[1]@n00#130",
	} {
		if got := mid.String(); got != want {
			t.Fatalf("String(%+v) = %q, want %q", mid, got, want)
		}
	}
}

func TestFrameStringFallback(t *testing.T) {
	f := Frame{ID: 0x1FFFFFFF, DLC: 2} // undecodable type field
	if got := f.String(); got != "data id=0x1fffffff dlc=2" {
		t.Fatalf("String = %q", got)
	}
}

func TestFrameFormatString(t *testing.T) {
	if FormatStandard.String() != "standard" || FormatExtended.String() != "extended" {
		t.Fatal("FrameFormat strings wrong")
	}
}

func TestNodeSetPanicsOutOfRange(t *testing.T) {
	for _, fn := range []func(){
		func() { EmptySet.Add(64) },
		func() { FullSet.Remove(200) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
	if FullSet.Contains(NodeID(99)) {
		t.Fatal("Contains out of range should be false, not panic")
	}
}

func TestBitRatePanicsAndBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive rate should panic")
		}
	}()
	BitRate(0).BitTime()
}

func TestFrameSizingPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NominalFrameBits(FormatStandard, 9) },
		func() { MaxStuffBits(FormatExtended, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestMIDValidateSrcRange(t *testing.T) {
	m := MID{Type: TypeData, Src: 64}
	if m.Validate() == nil {
		t.Fatal("src out of range accepted")
	}
}

func TestParseSet(t *testing.T) {
	cases := []struct {
		spec string
		want NodeSet
	}{
		{"", EmptySet},
		{"0-4", RangeSet(0, 5)},
		{"0,2,5", MakeSet(0, 2, 5)},
		{"0-4,7", MakeSet(0, 1, 2, 3, 4, 7)},
		{" 3 , 5 ", MakeSet(3, 5)},
		{"63", MakeSet(63)},
	}
	for _, c := range cases {
		got, err := ParseSet(c.spec)
		if err != nil {
			t.Fatalf("%q: %v", c.spec, err)
		}
		if got != c.want {
			t.Fatalf("%q = %v, want %v", c.spec, got, c.want)
		}
	}
}

func TestParseSetErrors(t *testing.T) {
	for _, spec := range []string{"x", "3-1", "0-", "-3", "1,,2", "64", "0-64"} {
		if _, err := ParseSet(spec); err == nil {
			t.Fatalf("spec %q accepted", spec)
		}
	}
}
