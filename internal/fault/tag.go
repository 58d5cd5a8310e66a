package fault

import "canely/internal/can"

// TagDigests stamps federation digest transmissions with the segment they
// summarize (the mid param of a TypeFed frame). Installed on a backbone
// medium — which carries digests for many segments and belongs to none —
// it lets a rule target one segment's digests: the scripted
// segment-partition fault. Non-digest frames pass through untagged.
type TagDigests struct {
	// Inner decides the transmission after tagging; nil injects nothing.
	Inner Injector
}

// Decide implements Injector.
func (t TagDigests) Decide(ctx TxContext) Decision {
	if mid, err := can.DecodeMID(ctx.Frame.ID); err == nil && mid.Type == can.TypeFed {
		ctx.Segments = ctx.Segments.Add(can.NodeID(mid.Param))
	}
	if t.Inner == nil {
		return Decision{}
	}
	return t.Inner.Decide(ctx)
}

var _ Injector = TagDigests{}
