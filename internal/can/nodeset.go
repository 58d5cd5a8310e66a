package can

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// NodeSet is a set of node identifiers, represented as a 64-bit mask so it
// serializes into exactly one CAN payload. It is the wire and in-memory form
// of the paper's node sets: the membership view Rf, the joining set Rj, the
// leaving set Rl, the failed set F and the reception history vector RHV.
//
// NodeSet is a value type: operations return new sets and never mutate the
// receiver, so views can be handed to upper layers without defensive copies.
type NodeSet uint64

// EmptySet is the set with no members.
const EmptySet NodeSet = 0

// FullSet contains every representable node (the paper's universe Π).
const FullSet NodeSet = ^NodeSet(0)

// MakeSet builds a set from the listed node ids.
func MakeSet(ids ...NodeID) NodeSet {
	var s NodeSet
	for _, id := range ids {
		s = s.Add(id)
	}
	return s
}

// RangeSet returns the set {lo, lo+1, ..., hi-1}.
func RangeSet(lo, hi NodeID) NodeSet {
	var s NodeSet
	for id := lo; id < hi; id++ {
		s = s.Add(id)
	}
	return s
}

// ParseSet parses a command-line node set: comma-separated ids and
// inclusive ranges, e.g. "0-4,7". The empty string is the empty set.
func ParseSet(spec string) (NodeSet, error) {
	var s NodeSet
	if spec == "" {
		return s, nil
	}
	id := func(v string) (NodeID, bool) {
		n, err := strconv.Atoi(v)
		return NodeID(n), err == nil && n >= 0 && n < MaxNodes
	}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if lo, hi, ok := strings.Cut(item, "-"); ok {
			a, okA := id(lo)
			b, okB := id(hi)
			if !okA || !okB || a > b {
				return 0, fmt.Errorf("can: malformed range %q", item)
			}
			s |= RangeSet(a, b+1)
			continue
		}
		n, ok := id(item)
		if !ok {
			return 0, fmt.Errorf("can: malformed id %q", item)
		}
		s = s.Add(n)
	}
	return s, nil
}

// Add returns the set with id included.
func (s NodeSet) Add(id NodeID) NodeSet {
	if !id.Valid() {
		panic(fmt.Sprintf("can: node id %d out of range", id))
	}
	return s | 1<<uint(id)
}

// Remove returns the set with id excluded.
func (s NodeSet) Remove(id NodeID) NodeSet {
	if !id.Valid() {
		panic(fmt.Sprintf("can: node id %d out of range", id))
	}
	return s &^ (1 << uint(id))
}

// Contains reports membership of id.
func (s NodeSet) Contains(id NodeID) bool {
	return id.Valid() && s&(1<<uint(id)) != 0
}

// Union returns s ∪ t.
func (s NodeSet) Union(t NodeSet) NodeSet { return s | t }

// Intersect returns s ∩ t.
func (s NodeSet) Intersect(t NodeSet) NodeSet { return s & t }

// Diff returns s \ t.
func (s NodeSet) Diff(t NodeSet) NodeSet { return s &^ t }

// Count returns the cardinality |s|.
func (s NodeSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Empty reports whether the set has no members.
func (s NodeSet) Empty() bool { return s == 0 }

// SubsetOf reports whether every member of s is in t.
func (s NodeSet) SubsetOf(t NodeSet) bool { return s&^t == 0 }

// Lowest returns the smallest member id. It must not be called on an empty
// set. Combined with Remove it iterates a set in the same ascending order
// as IDs, without the allocation — the idiom of the simulation hot paths:
//
//	for s := set; !s.Empty(); {
//		id := s.Lowest()
//		s = s.Remove(id)
//		...
//	}
func (s NodeSet) Lowest() NodeID {
	if s.Empty() {
		panic("can: Lowest on empty NodeSet")
	}
	return NodeID(bits.TrailingZeros64(uint64(s)))
}

// IDs lists the members in ascending order.
func (s NodeSet) IDs() []NodeID {
	out := make([]NodeID, 0, s.Count())
	for v := uint64(s); v != 0; {
		i := bits.TrailingZeros64(v)
		out = append(out, NodeID(i))
		v &^= 1 << uint(i)
	}
	return out
}

// Bytes serializes the set into an 8-byte little-endian payload.
func (s NodeSet) Bytes() []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(s))
	return b[:]
}

// SetFromBytes parses an 8-byte payload produced by Bytes.
func SetFromBytes(b []byte) (NodeSet, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("can: node set payload must be 8 bytes, got %d", len(b))
	}
	return NodeSet(binary.LittleEndian.Uint64(b)), nil
}

// String renders the set as "{n00,n03,n07}".
func (s NodeSet) String() string {
	if s.Empty() {
		return "{}"
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, id := range s.IDs() {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(id.String())
	}
	sb.WriteByte('}')
	return sb.String()
}
