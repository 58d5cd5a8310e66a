package rt

import (
	"fmt"
	"net"
	"sync"
	"time"

	"canely/internal/bus"
	"canely/internal/can"
	"canely/internal/sim"
	"canely/internal/stack"
	"canely/internal/wire"
)

// DialConfig parameterizes a live medium (one broker connection).
type DialConfig struct {
	// Addr is the broker address: "unix:/path" or "[tcp:]host:port".
	Addr string
	// Rate, when non-zero, asserts the broker's signalling rate: a
	// mismatching Welcome fails the dial. Zero accepts any rate.
	Rate can.BitRate
	// DialTimeout bounds the initial connection (including handshake and
	// retries). Defaults to 10 s.
	DialTimeout time.Duration
	// BackoffMin/BackoffMax bound the exponential reconnect backoff after
	// a broker disconnect: the base delay starts at BackoffMin and doubles
	// up to BackoffMax, and each sleep adds up to 50% randomized jitter on
	// top of the base. Defaults 25 ms and 1 s.
	BackoffMin, BackoffMax time.Duration
	// BackoffSeed seeds the jitter. The node identity is folded in, so a
	// fleet sharing one seed (or the zero default) still spreads its
	// redials; equal (seed, id) pairs reproduce the exact sleep sequence.
	BackoffSeed int64
	// WriteTimeout bounds one message write to the broker. Defaults 2 s.
	WriteTimeout time.Duration
	// Role classifies the client at the broker (Hello): the zero value is
	// a plain node; gateways dial their raw digest links with RoleGateway.
	Role wire.Role
	// Logf, when non-nil, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
}

func (c *DialConfig) fillDefaults() {
	if c.DialTimeout == 0 {
		c.DialTimeout = 10 * time.Second
	}
	if c.BackoffMin == 0 {
		c.BackoffMin = 25 * time.Millisecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 2 * time.Second
	}
}

// Medium is the node-side binding of one broker connection to the
// stack.Medium contract. Unlike a simulated medium, which carries every
// node of the network, a live Medium serves exactly one node: the one
// whose identity was given to DialMedium. Attach must be called once,
// with that identity.
//
// The Medium owns a manager goroutine that dials, hands the connection to
// the loop, pumps broker messages onto the loop, and redials with bounded
// exponential backoff when the broker goes away. While disconnected the
// controller behaves like a confined (bus-off) controller — no traffic in
// either direction — except that the condition is recoverable: transmit
// requests accumulate in the port's mailbox queue and are replayed on
// reconnect, so protocol actions taken during an outage (life-signs,
// failure-sign requests) are transmitted as soon as the bus returns.
type Medium struct {
	loop *Loop
	cfg  DialConfig
	id   can.NodeID
	port *Port

	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup
}

// backoff produces the reconnect delays: bounded exponential doubling
// with seeded randomized jitter. Without jitter every client of a
// restarted broker sleeps the identical schedule and the whole fleet
// redials in lockstep — a thundering herd aimed at the broker that just
// died under load. Each call returns base + U[0, base/2] and then
// doubles the base (capped at max), so delays stay within
// [BackoffMin, 1.5*BackoffMax] and distinct (seed, id) pairs
// de-synchronize while equal pairs replay byte-identical sequences.
type backoff struct {
	base, max time.Duration
	rng       *sim.RNG
}

func newBackoff(cfg *DialConfig, id can.NodeID) *backoff {
	return &backoff{
		base: cfg.BackoffMin,
		max:  cfg.BackoffMax,
		rng:  sim.NewRNG(cfg.BackoffSeed).Split(fmt.Sprintf("rt/backoff/n%02d", id)),
	}
}

// next returns the delay to sleep before the upcoming dial attempt and
// advances the schedule.
func (b *backoff) next() time.Duration {
	d := b.base + b.rng.Duration(b.base/2+1)
	if b.base *= 2; b.base > b.max {
		b.base = b.max
	}
	return d
}

// DialMedium connects node id to a broker and returns the medium for
// stack.New. The initial dial is synchronous (bounded by DialTimeout) so
// that configuration errors fail fast; reconnects afterwards are
// automatic. loop must already be running.
func DialMedium(loop *Loop, id can.NodeID, cfg DialConfig) (*Medium, error) {
	if !id.Valid() {
		return nil, fmt.Errorf("rt: invalid node id %d", id)
	}
	cfg.fillDefaults()
	m := &Medium{loop: loop, cfg: cfg, id: id, closed: make(chan struct{})}
	m.port = &Port{m: m, id: id, alive: true}

	deadline := time.Now().Add(cfg.DialTimeout)
	bo := newBackoff(&cfg, id)
	var conn net.Conn
	for {
		var err error
		conn, err = m.dialOnce(deadline)
		if err == nil {
			break
		}
		delay := bo.next()
		if time.Now().Add(delay).After(deadline) {
			return nil, fmt.Errorf("rt: dialing broker %s: %w", cfg.Addr, err)
		}
		time.Sleep(delay)
	}

	m.wg.Add(1)
	go m.manage(conn)
	return m, nil
}

// dialOnce performs one dial + handshake attempt.
func (m *Medium) dialOnce(deadline time.Time) (net.Conn, error) {
	network, address := SplitAddr(m.cfg.Addr)
	d := net.Dialer{Deadline: deadline}
	conn, err := d.Dial(network, address)
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(deadline)
	if err := wire.Write(conn, wire.Msg{Kind: wire.KindHello, Node: m.id, Role: m.cfg.Role}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	welcome, err := wire.Read(conn)
	if err != nil || welcome.Kind != wire.KindWelcome {
		conn.Close()
		if err == nil {
			err = fmt.Errorf("unexpected %v before welcome", welcome.Kind)
		}
		return nil, fmt.Errorf("welcome: %w", err)
	}
	if m.cfg.Rate != 0 && welcome.Rate != m.cfg.Rate {
		conn.Close()
		return nil, fmt.Errorf("broker rate %d, want %d", welcome.Rate, m.cfg.Rate)
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, nil
}

// manage owns the connection lifecycle: bind, pump, unbind, redial. All
// protocol state is touched via the loop; Call (not Post) is used for the
// bind/unbind transitions so they serialize with the pumped messages.
func (m *Medium) manage(conn net.Conn) {
	defer m.wg.Done()
	for {
		if conn != nil {
			m.loop.Call(func() { m.port.bind(conn) })
			m.pump(conn)
			c := conn
			m.loop.Call(func() { m.port.unbind(c) })
			conn = nil
		}
		select {
		case <-m.closed:
			return
		default:
		}
		// Redial with jittered bounded exponential backoff, forever (a
		// broker restart may take arbitrarily long; the port queues
		// meanwhile). Each outage restarts the schedule at BackoffMin.
		bo := newBackoff(&m.cfg, m.id)
		for {
			var err error
			conn, err = m.dialOnce(time.Now().Add(m.cfg.BackoffMax + time.Second))
			if err == nil {
				break
			}
			m.logf("canelynode %v: redial %s: %v", m.id, m.cfg.Addr, err)
			select {
			case <-m.closed:
				return
			case <-time.After(bo.next()):
			}
		}
	}
}

// pump forwards broker messages onto the loop until the connection dies.
func (m *Medium) pump(conn net.Conn) {
	for {
		msg, err := wire.Read(conn)
		if err != nil {
			select {
			case <-m.closed:
			default:
				m.logf("canelynode %v: link down: %v", m.id, err)
			}
			conn.Close()
			return
		}
		m.loop.Post(func() { m.port.onMessage(conn, msg) })
	}
}

func (m *Medium) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// PushDigest reports a gateway's current site view to the broker (a
// KindDigest record): pure observability, never interpreted by the MAC
// emulation. Loop-owned, like every port operation — gateways call it from
// site-change callbacks, which already run on the loop.
func (m *Medium) PushDigest(seg can.NodeID, view can.NodeSet) {
	m.port.forward(wire.Msg{Kind: wire.KindDigest, Seg: seg, Node: m.id, View: view})
}

// Close tears the medium down: no further reconnects, connection closed.
// The loop keeps running; Close only severs this medium.
func (m *Medium) Close() {
	m.closeOnce.Do(func() {
		close(m.closed)
		m.loop.Call(func() {
			if m.port.conn != nil {
				m.port.conn.Close()
			}
		})
	})
	m.wg.Wait()
}

// --- stack.Medium contract -------------------------------------------------

// Attach returns the node's controller port. It must be called exactly
// once, with the identity the medium was dialled for.
func (m *Medium) Attach(id can.NodeID) stack.Port {
	if id != m.id {
		panic(fmt.Sprintf("rt: medium dialled for %v, attach of %v", m.id, id))
	}
	if m.port.attached {
		panic(fmt.Sprintf("rt: node %v attached twice", id))
	}
	m.port.attached = true
	return m.port
}

// Stats synthesizes a minimal statistics snapshot from the local
// controller counters; wire-level occupancy accounting lives at the
// broker.
func (m *Medium) Stats() bus.Stats {
	return bus.Stats{FramesOK: m.port.txOK + m.port.rxOK}
}

var _ stack.Medium = (*Medium)(nil)

// --- stack.Port contract ---------------------------------------------------

// Port is the live CAN controller front-end: it mirrors the mailbox
// semantics of the simulated controllers in a shadow queue (which answers
// PendingEquivalent locally and replays un-confirmed requests after a
// reconnect) and forwards everything else to the broker.
//
// All methods and fields are loop-owned: the stack binding calls them from
// protocol code running on the loop, and the medium's manager marshals
// connection events onto the loop.
type Port struct {
	m        *Medium
	id       can.NodeID
	attached bool
	handler  bus.Handler

	conn net.Conn // nil while disconnected
	// queue shadows the broker-side transmit queue: requests not yet
	// confirmed. Mailbox semantics: one entry per (ID, RTR).
	queue []can.Frame

	alive bool
	state bus.ControllerState
	tec   int
	rec   int
	txOK  int
	rxOK  int
}

var _ stack.Port = (*Port)(nil)

// ID returns the node identity.
func (p *Port) ID() can.NodeID { return p.id }

// SetHandler installs the indication receiver.
func (p *Port) SetHandler(h bus.Handler) { p.handler = h }

// Request queues a frame for transmission. While the broker link is down
// the request is retained (mailbox semantics) and replayed on reconnect;
// only a crashed or bus-off controller rejects.
func (p *Port) Request(f can.Frame) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if !p.Operational() {
		return bus.ErrRequestRejected
	}
	for i := range p.queue {
		if p.queue[i].ID == f.ID && p.queue[i].RTR == f.RTR {
			p.queue[i] = f
			p.forward(wire.Msg{Kind: wire.KindRequest, Frame: f})
			return nil
		}
	}
	p.queue = append(p.queue, f)
	p.forward(wire.Msg{Kind: wire.KindRequest, Frame: f})
	return nil
}

// Abort cancels a pending transmit request. It reports whether a shadow
// entry was removed; a frame already on the broker's wire cannot be
// recalled, in which case a confirmation for the aborted identifier may
// still arrive (and is ignored).
func (p *Port) Abort(id uint32) bool {
	removed := false
	for i := range p.queue {
		if p.queue[i].ID == id {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			removed = true
			break
		}
	}
	p.forward(wire.Msg{Kind: wire.KindAbort, ID: id})
	return removed
}

// PendingEquivalent reports whether a wire-equivalent request is queued.
func (p *Port) PendingEquivalent(f can.Frame) bool {
	for i := range p.queue {
		if p.queue[i].SameWire(f) {
			return true
		}
	}
	return false
}

// Crash fail-silences the node: the broker's controller is killed (so the
// bus sees the same one-way transition as a simulated crash) and the link
// is torn down for good.
func (p *Port) Crash() {
	if !p.alive {
		return
	}
	p.alive = false
	p.queue = nil
	p.forward(wire.Msg{Kind: wire.KindCrash})
	// Severing the medium stops the reconnect manager: a crashed node
	// never returns (a restarted process is a fresh join).
	go p.m.Close()
}

// Operational reports whether the controller exchanges traffic eventually:
// alive and not confined. A disconnected-but-alive port still reports
// true — the outage is transient and its queue survives, unlike bus-off.
func (p *Port) Operational() bool { return p.alive && p.state != bus.BusOff }

// Connected reports whether the broker link is currently up.
func (p *Port) Connected() bool { return p.conn != nil }

// State returns the last fault-confinement state reported by the broker.
func (p *Port) State() bus.ControllerState { return p.state }

// Counters returns the last (TEC, REC) reported by the broker.
func (p *Port) Counters() (tec, rec int) { return p.tec, p.rec }

// forward writes one message to the broker when connected; a write
// failure severs the connection and lets the manager redial.
func (p *Port) forward(m wire.Msg) {
	if p.conn == nil {
		return
	}
	_ = p.conn.SetWriteDeadline(time.Now().Add(p.m.cfg.WriteTimeout))
	if err := wire.Write(p.conn, m); err != nil {
		p.m.logf("canelynode %v: write failed: %v", p.id, err)
		p.conn.Close()
		p.conn = nil
	}
}

// bind adopts a fresh connection and replays the shadow queue: every
// request not confirmed before the outage is requeued at the (possibly
// restarted) broker. Runs on the loop.
func (p *Port) bind(conn net.Conn) {
	select {
	case <-p.m.closed:
		// Close ran on the loop before this connection was bound and found
		// nothing to sever: do it here, or the pump would read forever.
		conn.Close()
		return
	default:
	}
	p.conn = conn
	for _, f := range p.queue {
		p.forward(wire.Msg{Kind: wire.KindRequest, Frame: f})
		if p.conn == nil {
			return // write failed mid-replay; manager will redial
		}
	}
}

// unbind drops a dead connection. Runs on the loop.
func (p *Port) unbind(conn net.Conn) {
	if p.conn == conn {
		p.conn = nil
	}
}

// onMessage applies one broker message. Messages raced from a connection
// that has since been unbound are ignored. Runs on the loop.
func (p *Port) onMessage(conn net.Conn, m wire.Msg) {
	if p.conn != conn || !p.alive {
		return
	}
	switch m.Kind {
	case wire.KindFrame:
		if !m.Own {
			p.rxOK++
		}
		if p.handler != nil {
			p.handler.OnFrame(m.Frame, m.Own)
		}
	case wire.KindConfirm:
		p.dequeue(m.Frame)
		p.txOK++
		if p.handler != nil {
			p.handler.OnConfirm(m.Frame)
		}
	case wire.KindState:
		wasOff := p.state == bus.BusOff
		p.state = m.State
		p.tec, p.rec = int(m.TEC), int(m.REC)
		if p.state == bus.BusOff && !wasOff {
			p.queue = nil
			if p.handler != nil {
				p.handler.OnBusOff()
			}
		}
	}
}

// dequeue drops the shadow entry matching a confirmed frame. Unlike the
// simulated controllers this tolerates a miss: an aborted-but-on-the-wire
// frame is confirmed without a queue entry.
func (p *Port) dequeue(f can.Frame) {
	for i := range p.queue {
		if p.queue[i].ID == f.ID && p.queue[i].RTR == f.RTR {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			return
		}
	}
}
