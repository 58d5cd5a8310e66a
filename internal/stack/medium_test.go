package stack

import (
	"strings"
	"testing"
)

func TestSubstrateStringParseRoundTrip(t *testing.T) {
	for _, s := range []Substrate{BitAccurate, Fast} {
		got, err := ParseSubstrate(s.String())
		if err != nil {
			t.Fatalf("ParseSubstrate(%v.String()): %v", int(s), err)
		}
		if got != s {
			t.Fatalf("round trip: %v -> %q -> %v", int(s), s.String(), int(got))
		}
	}
}

func TestSubstrateStringUnknown(t *testing.T) {
	// An out-of-range value must say so, not masquerade as the default
	// substrate — and must not survive a parse round trip.
	for _, s := range []Substrate{-1, 2, 99} {
		str := s.String()
		if str == "bit" || str == "fast" {
			t.Fatalf("Substrate(%d).String() = %q claims a real substrate", int(s), str)
		}
		if !strings.Contains(str, "substrate") {
			t.Fatalf("Substrate(%d).String() = %q, want a substrate(N) form", int(s), str)
		}
		if _, err := ParseSubstrate(str); err == nil {
			t.Fatalf("ParseSubstrate(%q) accepted an unknown substrate", str)
		}
	}
}

func TestParseSubstrateSpellings(t *testing.T) {
	for spec, want := range map[string]Substrate{
		"bit": BitAccurate, "bit-accurate": BitAccurate, "": BitAccurate,
		"fast": Fast, "fastbus": Fast,
	} {
		got, err := ParseSubstrate(spec)
		if err != nil || got != want {
			t.Fatalf("ParseSubstrate(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	// The datagram network is not a CAN substrate: the agreement argument
	// needs properties it deliberately lacks.
	for _, spec := range []string{"quantum", "datagram", "udp"} {
		if _, err := ParseSubstrate(spec); err == nil {
			t.Fatalf("ParseSubstrate accepted %q", spec)
		}
	}
}
