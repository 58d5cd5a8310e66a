package can

import "fmt"

// MsgType is the CANELy message-type component of the message control field
// (mid). Lower values yield numerically lower identifiers and therefore win
// bus arbitration: protocol control traffic outranks application data, as
// the paper's latency analysis assumes.
type MsgType uint8

// Message types. The ordering encodes arbitration priority.
const (
	// TypeFDA carries a failure-sign: remote frame, mid = {FDA, failed}.
	TypeFDA MsgType = 1
	// TypeRHA carries a reception history vector: data frame,
	// mid = {RHA, #RHV, src}, payload = RHV bitset.
	TypeRHA MsgType = 2
	// TypeJoin is a membership join request: remote frame, mid = {JOIN, r}.
	TypeJoin MsgType = 3
	// TypeLeave is a membership leave request: remote frame, mid = {LEAVE, r}.
	TypeLeave MsgType = 4
	// TypeELS is an explicit life-sign: remote frame, mid = {ELS, r}.
	TypeELS MsgType = 5
	// TypeData is ordinary application data: data frame,
	// mid = {DATA, stream, src, ref}.
	TypeData MsgType = 6
	// TypeRing is an OSEK NM logical-ring message (baseline comparator):
	// data frame, mid = {RING, dest, src}.
	TypeRing MsgType = 7
	// TypeGuard is a CANopen node-guarding exchange (baseline comparator):
	// remote frame mid = {GUARD, slave} for the master's request, data
	// frame mid = {GUARD, slave, slave} for the slave's status response.
	TypeGuard MsgType = 8
	// TypeRB is an EDCAN eager-diffusion reliable broadcast of application
	// data: data frame, mid = {RB, origin, retransmitter, ref}.
	TypeRB MsgType = 9
	// TypeSync is a clock synchronization exchange ([15]): data frames
	// mid = {SYNC, round, master, 0} for the tight sync indication and
	// mid = {SYNC, round, master, 1} for the follow-up carrying the
	// master's latched timestamp.
	TypeSync MsgType = 10
	// TypeRel is a RELCAN lazy reliable broadcast ([18]): the message is a
	// data frame mid = {REL, origin, origin, ref} (fallback retransmissions
	// substitute their own src), and the sender's confirmation is a remote
	// frame mid = {REL, origin, 0, ref|0x80}.
	TypeRel MsgType = 11
	// TypeFed is a federation membership digest exchanged between gateways:
	// data frame mid = {FED, segment, gateway}, payload = the segment's
	// membership view as a NodeSet. Lowest arbitration priority: digests
	// summarize state that is refreshed periodically, so they must never
	// displace intra-segment protocol traffic.
	TypeFed MsgType = 12
	// TypeGossip is a unicast SWIM-style gossip message (ping, ping-req,
	// ack, join — the baseline comparator over the lossy datagram medium):
	// data frame, mid = {GOSSIP, dest, src, kind<<4|seq}. On the datagram
	// substrate the Param component addresses the destination node; there
	// is no arbitration, so the priority position is nominal.
	TypeGossip MsgType = 13
)

const maxMsgType = TypeGossip

// NumMsgTypes sizes tables indexed by MsgType: every valid type, plus slot
// 0 for identifiers that do not decode.
const NumMsgTypes = int(maxMsgType) + 1

// RelConfirmFlag marks the confirmation variant of a RELCAN reference.
const RelConfirmFlag = 0x80

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case TypeFDA:
		return "FDA"
	case TypeRHA:
		return "RHA"
	case TypeJoin:
		return "JOIN"
	case TypeLeave:
		return "LEAVE"
	case TypeELS:
		return "ELS"
	case TypeData:
		return "DATA"
	case TypeRing:
		return "RING"
	case TypeGuard:
		return "GUARD"
	case TypeRB:
		return "RB"
	case TypeSync:
		return "SYNC"
	case TypeRel:
		return "REL"
	case TypeFed:
		return "FED"
	case TypeGossip:
		return "GOSSIP"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// MID is the CANELy message control field carried in the 29-bit CAN
// identifier (paper §5: "the message control field or message identifier
// (mid) consists of a type reference, an (optional) reference number and a
// node identifier").
//
// Bit layout, most significant first (lower value = higher priority):
//
//	| type:5 | param:8 | src:8 | ref:8 |
//
// Src is zero for clusterable remote frames (FDA, JOIN, LEAVE, ELS): those
// frames must be bit-identical across simultaneous senders so the wired-AND
// merges them. Param carries the protocol argument: the failed node for
// FDA, the joining/leaving/life-signing node for JOIN/LEAVE/ELS, the RHV
// cardinality for RHA, a stream tag for DATA.
type MID struct {
	Type  MsgType
	Param uint8
	Src   NodeID
	Ref   uint8
}

const (
	midTypeShift  = 24
	midParamShift = 16
	midSrcShift   = 8
)

// Encode packs the mid into a 29-bit identifier.
func (m MID) Encode() uint32 {
	return uint32(m.Type)<<midTypeShift |
		uint32(m.Param)<<midParamShift |
		uint32(m.Src)<<midSrcShift |
		uint32(m.Ref)
}

// Validate checks component ranges.
func (m MID) Validate() error {
	if m.Type == 0 || m.Type > maxMsgType {
		return fmt.Errorf("can: invalid message type %d", m.Type)
	}
	if !m.Src.Valid() {
		return fmt.Errorf("can: invalid source %d", m.Src)
	}
	return nil
}

// DecodeMID unpacks a 29-bit identifier into its mid components.
func DecodeMID(id uint32) (MID, error) {
	if id > MaxID {
		return MID{}, fmt.Errorf("can: identifier %#x exceeds 29 bits", id)
	}
	m := MID{
		Type:  MsgType(id >> midTypeShift),
		Param: uint8(id >> midParamShift),
		Src:   NodeID(uint8(id >> midSrcShift)),
		Ref:   uint8(id),
	}
	if err := m.Validate(); err != nil {
		return MID{}, err
	}
	return m, nil
}

// String renders the mid for traces, e.g. "FDA(n03)" or "DATA[2]@n01#17".
func (m MID) String() string {
	switch m.Type {
	case TypeFDA, TypeJoin, TypeLeave, TypeELS:
		return fmt.Sprintf("%v(%v)", m.Type, NodeID(m.Param))
	case TypeRHA:
		return fmt.Sprintf("RHA(#%d)@%v", RHACardinality(m), m.Src)
	case TypeFed:
		return fmt.Sprintf("FED(s%02d)@%v", m.Param, m.Src)
	default:
		return fmt.Sprintf("%v[%d]@%v#%d", m.Type, m.Param, m.Src, m.Ref)
	}
}

// FDASign builds the failure-sign mid for a failed node r. The frame is a
// remote frame with no source component so all diffusers cluster.
func FDASign(failed NodeID) MID { return MID{Type: TypeFDA, Param: uint8(failed)} }

// RHASign builds the mid of an RHV broadcast: the paper specifies
// mid = {RHA, #RHV, src} where #RHV is the cardinality of the proposed
// vector. Encoding 64-#RHV in the priority field makes larger vectors win
// arbitration, which speeds convergence toward the intersection.
func RHASign(card int, src NodeID) MID {
	return MID{Type: TypeRHA, Param: uint8(MaxNodes - card), Src: src}
}

// RHACardinality recovers #RHV from an RHA mid.
func RHACardinality(m MID) int { return MaxNodes - int(m.Param) }

// JoinSign builds the join-request mid for node r.
func JoinSign(r NodeID) MID { return MID{Type: TypeJoin, Param: uint8(r)} }

// LeaveSign builds the leave-request mid for node r.
func LeaveSign(r NodeID) MID { return MID{Type: TypeLeave, Param: uint8(r)} }

// ELSSign builds the explicit life-sign mid for node r.
func ELSSign(r NodeID) MID { return MID{Type: TypeELS, Param: uint8(r)} }

// DataSign builds an application-data mid on a stream tag.
func DataSign(stream uint8, src NodeID, ref uint8) MID {
	return MID{Type: TypeData, Param: stream, Src: src, Ref: ref}
}

// RingSign builds an OSEK NM logical-ring message mid: src passes the ring
// token to dest.
func RingSign(dest, src NodeID) MID {
	return MID{Type: TypeRing, Param: uint8(dest), Src: src}
}

// GuardSign builds the CANopen master's node-guarding request for a slave
// (remote frame).
func GuardSign(slave NodeID) MID { return MID{Type: TypeGuard, Param: uint8(slave)} }

// GuardReplySign builds the slave's node-guarding status response (data
// frame answering GuardSign).
func GuardReplySign(slave NodeID) MID {
	return MID{Type: TypeGuard, Param: uint8(slave), Src: slave, Ref: 1}
}

// RBSign builds an EDCAN reliable-broadcast mid: a copy of message
// (origin, ref) transmitted by node src.
func RBSign(origin, src NodeID, ref uint8) MID {
	return MID{Type: TypeRB, Param: uint8(origin), Src: src, Ref: ref}
}

// RelSign builds a RELCAN message mid: message (origin, ref) transmitted
// by node src (the origin itself, or a fallback retransmitter).
func RelSign(origin, src NodeID, ref uint8) MID {
	return MID{Type: TypeRel, Param: uint8(origin), Src: src, Ref: ref &^ RelConfirmFlag}
}

// RelConfirmSign builds the sender's RELCAN confirmation mid.
func RelConfirmSign(origin NodeID, ref uint8) MID {
	return MID{Type: TypeRel, Param: uint8(origin), Ref: ref | RelConfirmFlag}
}

// FedDigestSign builds the mid of a federation membership digest: gateway
// gw summarizing the view of segment seg.
func FedDigestSign(seg NodeID, gw NodeID) MID {
	return MID{Type: TypeFed, Param: uint8(seg), Src: gw}
}

// GossipSign builds a unicast SWIM gossip message mid addressed to dest.
// Ref packs the message kind in its high nibble and a 4-bit sequence number
// in its low nibble (internal/gossip owns the encoding).
func GossipSign(dest, src NodeID, ref uint8) MID {
	return MID{Type: TypeGossip, Param: uint8(dest), Src: src, Ref: ref}
}

// GossipDest recovers the destination node of a gossip mid.
func GossipDest(m MID) NodeID { return NodeID(m.Param) }

// SyncSign builds the tight clock-sync indication mid for a round.
func SyncSign(round uint8, master NodeID) MID {
	return MID{Type: TypeSync, Param: round, Src: master, Ref: 0}
}

// FollowUpSign builds the follow-up mid carrying the master's timestamp.
func FollowUpSign(round uint8, master NodeID) MID {
	return MID{Type: TypeSync, Param: round, Src: master, Ref: 1}
}
