// Package edcan implements the EDCAN ("Eager Diffusion") reliable broadcast
// protocol of [18] ("Fault-tolerant broadcasts in CAN", FTCS-28) for
// application data messages. EDCAN is the ancestor of the paper's FDA
// micro-protocol: every recipient of the first copy of a message eagerly
// retransmits it, so even if the original transmission suffered an
// inconsistent omission and the sender crashed before retransmitting, any
// single correct recipient suffices to complete the broadcast.
//
// Unlike FDA — which specializes the scheme to contentless failure-signs
// carried in clusterable remote frames — EDCAN diffuses data frames, so
// each retransmission is a distinct physical frame (identified by the
// retransmitter). The cost difference between the two is exactly what the
// clustering ablation benchmark measures.
package edcan

import (
	"fmt"

	"canely/internal/can"
	"canely/internal/canlayer"
)

// Config parameterizes the broadcaster.
type Config struct {
	// J is the inconsistent omission degree bound (LCAN4): once more than
	// J copies of a message were observed, a pending local retransmission
	// is aborted.
	J int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.J < 0 {
		return fmt.Errorf("edcan: J must be non-negative, got %d", c.J)
	}
	return nil
}

// msgKey identifies one broadcast message network-wide.
type msgKey struct {
	origin can.NodeID
	ref    uint8
}

// Broadcaster is the EDCAN protocol entity at one node.
type Broadcaster struct {
	cfg   Config
	layer *canlayer.Layer
	local can.NodeID

	deliver []func(origin can.NodeID, ref uint8, data []byte)

	ndup    map[msgKey]int
	pending map[msgKey]can.MID
	nextRef uint8

	// Retransmissions counts eager retransmissions issued locally
	// (bandwidth accounting for the ablation experiments).
	Retransmissions int
}

// New creates the protocol entity and hooks it to the layer.
func New(layer *canlayer.Layer, cfg Config) (*Broadcaster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &Broadcaster{
		cfg:     cfg,
		layer:   layer,
		local:   layer.NodeID(),
		ndup:    make(map[msgKey]int),
		pending: make(map[msgKey]can.MID),
	}
	layer.HandleDataInd(b.onDataInd)
	return b, nil
}

// Deliver registers a message consumer. Messages are delivered exactly
// once per (origin, ref), in reception order. The data slice is the layer's
// indication storage, valid only until the consumer returns.
func (b *Broadcaster) Deliver(fn func(origin can.NodeID, ref uint8, data []byte)) {
	b.deliver = append(b.deliver, fn)
}

// Broadcast reliably broadcasts a payload, returning the message reference.
//
// References wrap after 256 messages per origin: a reference may only be
// reused once its previous incarnation has left the network (delivered
// everywhere and no retransmissions in flight). This is the paper's own
// time-separation discipline — the same one the membership protocol
// applies to node reintegration — and holds trivially at CAN bandwidths,
// where 256 in-flight broadcasts from one origin exceed the wire capacity
// by orders of magnitude.
func (b *Broadcaster) Broadcast(data []byte) (uint8, error) {
	ref := b.nextRef
	b.nextRef++
	mid := can.RBSign(b.local, b.local, ref)
	if err := b.layer.DataReq(mid, data); err != nil {
		return 0, err
	}
	b.pending[msgKey{b.local, ref}] = mid
	return ref, nil
}

// onDataInd implements the eager diffusion: deliver the first copy and
// retransmit it under the local identity; suppress retransmissions once
// more than J copies circulate.
func (b *Broadcaster) onDataInd(mid can.MID, data []byte) {
	if mid.Type != can.TypeRB {
		return
	}
	key := msgKey{can.NodeID(mid.Param), mid.Ref}
	b.ndup[key]++
	switch {
	case b.ndup[key] == 1:
		for _, fn := range b.deliver {
			fn(key.origin, key.ref, data)
		}
		if key.origin != b.local {
			retx := can.RBSign(key.origin, b.local, key.ref)
			if err := b.layer.DataReq(retx, data); err == nil {
				b.pending[key] = retx
				b.Retransmissions++
			}
		}
	case b.ndup[key] > b.cfg.J:
		if pend, ok := b.pending[key]; ok {
			b.layer.AbortReq(pend)
			delete(b.pending, key)
		}
	}
}

// Copies returns how many copies of a message were observed locally.
func (b *Broadcaster) Copies(origin can.NodeID, ref uint8) int {
	return b.ndup[msgKey{origin, ref}]
}
