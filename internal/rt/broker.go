package rt

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"canely/internal/bus"
	"canely/internal/can"
	"canely/internal/fastbus"
	"canely/internal/wire"
)

// BrokerConfig parameterizes a bus broker.
type BrokerConfig struct {
	// Rate is the emulated signalling rate; defaults to 1 Mbit/s. Lower
	// rates stretch frame durations (a 125 kbit/s frame lasts ~1 ms),
	// which off Linux keeps frames above the 1 ms resolution of the
	// loop's timer (DESIGN §10).
	Rate can.BitRate
	// WriteTimeout bounds one batched write to a client before the client
	// is dropped (a wedged client must not stall its shard's writer).
	// Defaults to 2 s.
	WriteTimeout time.Duration
	// Shards is the number of writer goroutines client output is sharded
	// across; <= 0 picks a small CPU-proportional default. The bus loop
	// never writes to sockets itself: it appends to per-client bounded
	// queues and the shard writers drain them with batched, buffered
	// writes.
	Shards int
	// QueueDepth bounds each client's outbound queue, in messages.
	// A client that stays QueueDepth messages behind the bus is dropped
	// (bounded backpressure — a slow reader can cost at most QueueDepth
	// messages of memory, never unbounded growth). Defaults to 512.
	QueueDepth int
	// MetricsAddr, when non-empty, serves the plain-text /metrics endpoint
	// on this address ("host:port"): connections, frames, queue depths,
	// drops. Use Broker.MetricsURL for the bound address.
	MetricsAddr string
	// Logf, when non-nil, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
}

// BrokerMetrics is a point-in-time snapshot of the broker's load counters
// (the same numbers /metrics serves).
type BrokerMetrics struct {
	// Conns and Taps are current-connection gauges (node/gateway clients
	// and passive taps respectively).
	Conns int64
	Taps  int64
	// FramesDelivered counts physical frames the emulated bus delivered.
	FramesDelivered int64
	// MsgsSent counts protocol messages written to clients.
	MsgsSent int64
	// QueueDepth is the instantaneous total of queued outbound messages.
	QueueDepth int64
	// Overflows counts clients dropped for exceeding QueueDepth;
	// WriteErrors counts clients dropped on failed or timed-out writes.
	Overflows   int64
	WriteErrors int64
}

// Broker emulates one CAN medium over local sockets: it accepts node
// connections, queues their transmit requests into a frame-level
// internal/fastbus bus, and paces that bus's discrete events against the
// wall clock on a Loop. Arbitration, wired-AND clustering of identical
// remote frames, exact frame durations and TEC/REC fault confinement are
// therefore byte-for-byte the simulator's arithmetic; only the clock and
// the transport differ.
//
// Output never blocks the bus loop: every indication is appended to the
// client's bounded queue and written by one of a small pool of shard
// writer goroutines with per-flush batching (see shard). Passive
// wire.RoleTap clients observe every delivered frame without occupying a
// controller identity, which is what lets one broker carry far more
// connections than can.MaxNodes.
type Broker struct {
	cfg  BrokerConfig
	ln   net.Listener
	loop *Loop
	bus  *fastbus.Bus

	// clients and handlers are loop-owned: every access happens on the
	// loop goroutine. handlers persist across reconnects of the same node
	// (the fastbus port keeps its confinement state); clients are the
	// currently-bound connections. taps is the set of passive observers.
	clients  map[can.NodeID]*brokerClient
	handlers map[can.NodeID]*brokerHandler
	taps     map[*brokerClient]struct{}
	// digests retains the last site digest per gateway client — the
	// broker-side observability point for cross-segment agreement. It is
	// loop-owned.
	digests map[can.NodeID]wire.Msg

	shards  []*shard
	nextSh  atomic.Int64
	metrics brokerCounters
	msrv    *http.Server
	mln     net.Listener

	wg        sync.WaitGroup
	closeOnce sync.Once
	closed    chan struct{}
}

// brokerCounters are the atomics behind /metrics. Writers are spread over
// the loop and the shard goroutines, so everything is atomic.
type brokerCounters struct {
	conns       atomic.Int64
	taps        atomic.Int64
	frames      atomic.Int64
	sent        atomic.Int64
	queued      atomic.Int64
	overflows   atomic.Int64
	writeErrors atomic.Int64
}

// brokerClient is one bound connection: a node, gateway or tap.
type brokerClient struct {
	conn net.Conn
	id   can.NodeID
	tap  bool
	sh   *shard

	// mu guards the outbound queue. Enqueuers (the loop, mostly) append;
	// the shard writer swaps the queue out wholesale per flush.
	mu      sync.Mutex
	queue   []wire.Msg
	ready   bool // already on the shard's ready list
	dropped bool
}

// shard is one writer goroutine plus the ready-list of its clients that
// have queued output. Clients are assigned round-robin at registration;
// a client's messages are only ever written by its own shard, so per-client
// ordering is total.
type shard struct {
	b  *Broker
	mu sync.Mutex
	// ready holds clients with pending output, each at most once (the
	// client's ready flag). Bounded by the shard's client population.
	ready []*brokerClient
	kick  chan struct{} // cap 1: "ready list non-empty" doorbell
	batch []wire.Msg    // writer-local flush scratch
	buf   *bufio.Writer // writer-local, Reset per flush
}

// SplitAddr splits a broker address of the form "unix:/path" or
// "[tcp:]host:port" into a network and a dial/listen address.
func SplitAddr(addr string) (network, address string) {
	switch {
	case strings.HasPrefix(addr, "unix:"):
		return "unix", strings.TrimPrefix(addr, "unix:")
	case strings.HasPrefix(addr, "tcp:"):
		return "tcp", strings.TrimPrefix(addr, "tcp:")
	default:
		return "tcp", addr
	}
}

// ListenBroker starts a broker on the given address ("unix:/path" or
// "[tcp:]host:port") and begins accepting clients immediately.
func ListenBroker(addr string, cfg BrokerConfig) (*Broker, error) {
	network, address := SplitAddr(addr)
	ln, err := net.Listen(network, address)
	if err != nil {
		return nil, fmt.Errorf("rt: broker listen: %w", err)
	}
	if cfg.Rate == 0 {
		cfg.Rate = can.Rate1Mbps
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 2 * time.Second
	}
	if cfg.Shards <= 0 {
		cfg.Shards = defaultShards()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 512
	}
	b := &Broker{
		cfg:      cfg,
		ln:       ln,
		loop:     StartLoop(),
		clients:  make(map[can.NodeID]*brokerClient),
		handlers: make(map[can.NodeID]*brokerHandler),
		taps:     make(map[*brokerClient]struct{}),
		digests:  make(map[can.NodeID]wire.Msg),
		closed:   make(chan struct{}),
	}
	b.bus = fastbus.New(b.loop.Scheduler(), fastbus.Config{Rate: cfg.Rate})
	// The observer runs on the loop during bus events: count the frame and
	// fan it out to the passive taps (loop-owned set, so no lock).
	b.bus.SetObserver(func(f can.Frame) {
		b.metrics.frames.Add(1)
		if len(b.taps) == 0 {
			return
		}
		m := wire.Msg{Kind: wire.KindFrame, Frame: f}
		for cl := range b.taps {
			b.send(cl, m)
		}
	})
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{b: b, kick: make(chan struct{}, 1), buf: bufio.NewWriterSize(nil, 4096)}
		b.shards = append(b.shards, sh)
		b.wg.Add(1)
		go sh.run()
	}
	if cfg.MetricsAddr != "" {
		if err := b.serveMetrics(cfg.MetricsAddr); err != nil {
			b.Close()
			return nil, err
		}
	}
	b.wg.Add(1)
	go b.acceptLoop()
	return b, nil
}

// defaultShards picks the writer-pool size: enough goroutines to keep
// several NICs busy, not so many that mostly-idle brokers pay for them.
func defaultShards() int {
	n := runtime.NumCPU()
	if n > 8 {
		n = 8
	}
	if n < 2 {
		n = 2
	}
	return n
}

// Addr returns the broker's bound listen address.
func (b *Broker) Addr() net.Addr { return b.ln.Addr() }

// Rate returns the emulated signalling rate.
func (b *Broker) Rate() can.BitRate { return b.cfg.Rate }

// Metrics snapshots the load counters.
func (b *Broker) Metrics() BrokerMetrics {
	return BrokerMetrics{
		Conns:           b.metrics.conns.Load(),
		Taps:            b.metrics.taps.Load(),
		FramesDelivered: b.metrics.frames.Load(),
		MsgsSent:        b.metrics.sent.Load(),
		QueueDepth:      b.metrics.queued.Load(),
		Overflows:       b.metrics.overflows.Load(),
		WriteErrors:     b.metrics.writeErrors.Load(),
	}
}

// MetricsURL returns the /metrics endpoint URL, or "" when not serving.
func (b *Broker) MetricsURL() string {
	if b.mln == nil {
		return ""
	}
	return "http://" + b.mln.Addr().String() + "/metrics"
}

// serveMetrics binds the metrics listener and serves the plain-text
// counters.
func (b *Broker) serveMetrics(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("rt: metrics listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		m := b.Metrics()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "canelyd_connections %d\n", m.Conns)
		fmt.Fprintf(w, "canelyd_taps %d\n", m.Taps)
		fmt.Fprintf(w, "canelyd_frames_delivered_total %d\n", m.FramesDelivered)
		fmt.Fprintf(w, "canelyd_msgs_sent_total %d\n", m.MsgsSent)
		fmt.Fprintf(w, "canelyd_queue_depth %d\n", m.QueueDepth)
		fmt.Fprintf(w, "canelyd_queue_overflows_total %d\n", m.Overflows)
		fmt.Fprintf(w, "canelyd_write_errors_total %d\n", m.WriteErrors)
	})
	b.mln = ln
	b.msrv = &http.Server{Handler: mux}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		_ = b.msrv.Serve(ln)
	}()
	return nil
}

// logf emits a lifecycle diagnostic when configured.
func (b *Broker) logf(format string, args ...any) {
	if b.cfg.Logf != nil {
		b.cfg.Logf(format, args...)
	}
}

// acceptLoop admits clients until the listener closes.
func (b *Broker) acceptLoop() {
	defer b.wg.Done()
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			select {
			case <-b.closed:
			default:
				b.logf("canelyd: accept: %v", err)
			}
			return
		}
		b.wg.Add(1)
		go b.serveConn(conn)
	}
}

// serveConn handshakes one client and pumps its requests into the bus
// loop. It runs on a per-connection goroutine; every touch of bus state is
// marshalled onto the loop.
func (b *Broker) serveConn(conn net.Conn) {
	defer b.wg.Done()
	defer conn.Close()

	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	hello, err := wire.Read(conn)
	if err != nil || hello.Kind != wire.KindHello {
		b.logf("canelyd: %v: bad hello: %v", conn.RemoteAddr(), err)
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	id := hello.Node

	sh := b.shards[int(b.nextSh.Add(1))%len(b.shards)]
	cl := &brokerClient{conn: conn, id: id, tap: hello.Role == wire.RoleTap, sh: sh}
	if !b.loop.Call(func() { b.register(cl) }) {
		return // broker shut down mid-handshake
	}
	if cl.tap {
		b.metrics.taps.Add(1)
		defer b.metrics.taps.Add(-1)
	} else {
		b.metrics.conns.Add(1)
		defer b.metrics.conns.Add(-1)
	}
	b.logf("canelyd: %v %v attached from %v", hello.Role, id, conn.RemoteAddr())

	for {
		msg, err := wire.Read(conn)
		if err != nil {
			b.loop.Post(func() { b.unregister(cl) })
			b.logf("canelyd: %v detached: %v", id, err)
			return
		}
		if cl.tap {
			// Taps are read-only after Hello.
			b.loop.Post(func() { b.unregister(cl) })
			b.logf("canelyd: tap from %v sent %v; dropping", conn.RemoteAddr(), msg.Kind)
			return
		}
		switch msg.Kind {
		case wire.KindRequest:
			f := msg.Frame
			b.loop.Post(func() { b.request(cl, f) })
		case wire.KindAbort:
			fid := msg.ID
			b.loop.Post(func() {
				if p := b.bus.Port(cl.id); p != nil {
					p.Abort(fid)
				}
			})
		case wire.KindCrash:
			b.loop.Post(func() {
				if p := b.bus.Port(cl.id); p != nil {
					p.Crash()
				}
			})
		case wire.KindDigest:
			d := msg
			b.loop.Post(func() { b.digests[d.Node] = d })
			b.logf("canelyd: gateway %v site digest for segment %v: %v", msg.Node, msg.Seg, msg.View)
		default:
			b.loop.Post(func() { b.unregister(cl) })
			b.logf("canelyd: %v sent unexpected %v; dropping", id, msg.Kind)
			return
		}
	}
}

// register binds a connection to a node's port, attaching the port on
// first contact and rebinding (replacing any stale connection) on
// reconnect. Taps only join the observer set. Runs on the loop.
func (b *Broker) register(cl *brokerClient) {
	if cl.tap {
		b.taps[cl] = struct{}{}
		b.send(cl, wire.Msg{Kind: wire.KindWelcome, Rate: b.cfg.Rate})
		return
	}
	if old := b.clients[cl.id]; old != nil {
		// A reconnecting node supersedes its previous connection: close it
		// so its reader unblocks and unregisters.
		old.conn.Close()
	}
	b.clients[cl.id] = cl
	if b.bus.Port(cl.id) == nil {
		port := b.bus.Attach(cl.id)
		h := &brokerHandler{b: b, id: cl.id}
		b.handlers[cl.id] = h
		port.SetHandler(h)
	}
	// Welcome is queued on the loop so it cannot reorder against frame
	// indications already flowing to this node: all of a client's output
	// goes through one queue drained by one shard writer.
	b.send(cl, wire.Msg{Kind: wire.KindWelcome, Rate: b.cfg.Rate})
	// A reconnecting node must learn confinement transitions that happened
	// while it was away (e.g. it went bus-off between connections).
	if p := b.bus.Port(cl.id); p != nil && p.State() != bus.ErrorActive {
		tec, rec := p.Counters()
		b.send(cl, wire.Msg{
			Kind: wire.KindState, State: p.State(),
			TEC: clampU16(tec), REC: clampU16(rec),
		})
	}
}

// unregister unbinds a connection. The port (and its confinement state)
// stays attached so the node can reconnect. Runs on the loop.
func (b *Broker) unregister(cl *brokerClient) {
	if cl.tap {
		delete(b.taps, cl)
	} else if b.clients[cl.id] == cl {
		delete(b.clients, cl.id)
	}
	cl.conn.Close()
}

// request queues a transmit request at the node's port. Runs on the loop.
func (b *Broker) request(cl *brokerClient, f can.Frame) {
	p := b.bus.Port(cl.id)
	if p == nil || b.clients[cl.id] != cl {
		return
	}
	// A rejected request (crashed or bus-off controller) is dropped
	// silently, exactly as the simulated stack binding drops it.
	_ = p.Request(f)
}

// send enqueues one message for a client and rings its shard. Never
// blocks: a queue at QueueDepth marks the client dropped (bounded
// backpressure) and its reader unregisters it. Consecutive State pushes
// coalesce — only the newest confinement snapshot matters — so a storm of
// transitions cannot evict a slow-but-live client. Runs on the loop (and
// on shard writers for nothing: writers only drain).
func (b *Broker) send(cl *brokerClient, m wire.Msg) {
	cl.mu.Lock()
	if cl.dropped {
		cl.mu.Unlock()
		return
	}
	if n := len(cl.queue); n > 0 && m.Kind == wire.KindState && cl.queue[n-1].Kind == wire.KindState {
		cl.queue[n-1] = m
	} else if n >= b.cfg.QueueDepth {
		cl.dropped = true
		cl.queue = nil
		b.metrics.queued.Add(-int64(n))
		cl.mu.Unlock()
		b.metrics.overflows.Add(1)
		b.logf("canelyd: %v overflowed %d queued messages; dropping", cl.id, n)
		// Close outside the lock; the connection's reader unregisters it.
		cl.conn.Close()
		return
	} else {
		cl.queue = append(cl.queue, m)
		b.metrics.queued.Add(1)
	}
	needKick := !cl.ready
	cl.ready = true
	cl.mu.Unlock()
	if needKick {
		cl.sh.enqueue(cl)
	}
}

// enqueue puts a client on the shard's ready list and rings the doorbell.
func (s *shard) enqueue(cl *brokerClient) {
	s.mu.Lock()
	s.ready = append(s.ready, cl)
	s.mu.Unlock()
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// run is the shard writer: it drains ready clients until the broker
// closes, batching each client's whole backlog into one buffered write.
func (s *shard) run() {
	defer s.b.wg.Done()
	for {
		select {
		case <-s.kick:
		case <-s.b.closed:
			return
		}
		for {
			s.mu.Lock()
			if len(s.ready) == 0 {
				s.mu.Unlock()
				break
			}
			cl := s.ready[0]
			copy(s.ready, s.ready[1:])
			s.ready = s.ready[:len(s.ready)-1]
			s.mu.Unlock()
			s.flush(cl)
		}
	}
}

// flush writes everything queued for one client. The queue is swapped out
// under the lock and written outside it, so the loop keeps enqueueing
// while the socket write is in flight. Loops until the queue is observed
// empty, at which point the ready flag is cleared atomically with that
// observation.
func (s *shard) flush(cl *brokerClient) {
	for {
		cl.mu.Lock()
		if cl.dropped || len(cl.queue) == 0 {
			cl.ready = false
			cl.mu.Unlock()
			return
		}
		s.batch = append(s.batch[:0], cl.queue...)
		cl.queue = cl.queue[:0]
		cl.mu.Unlock()

		n := len(s.batch)
		s.b.metrics.queued.Add(-int64(n))
		_ = cl.conn.SetWriteDeadline(time.Now().Add(s.b.cfg.WriteTimeout))
		s.buf.Reset(cl.conn)
		err := error(nil)
		for i := range s.batch {
			if err = wire.Write(s.buf, s.batch[i]); err != nil {
				break
			}
		}
		if err == nil {
			err = s.buf.Flush()
		}
		if err != nil {
			cl.mu.Lock()
			cl.dropped = true
			dropped := len(cl.queue)
			cl.queue = nil
			cl.ready = false
			cl.mu.Unlock()
			s.b.metrics.queued.Add(-int64(dropped))
			s.b.metrics.writeErrors.Add(1)
			s.b.logf("canelyd: %v write failed: %v", cl.id, err)
			// The connection's reader unblocks on the close and unregisters.
			cl.conn.Close()
			return
		}
		s.b.metrics.sent.Add(int64(n))
	}
}

// brokerHandler forwards one port's bus indications to whichever
// connection currently binds the node. It is installed once per attached
// port and survives reconnects.
type brokerHandler struct {
	b         *Broker
	id        can.NodeID
	lastState bus.ControllerState
}

var _ bus.Handler = (*brokerHandler)(nil)

func (h *brokerHandler) OnFrame(f can.Frame, own bool) {
	if cl := h.b.clients[h.id]; cl != nil {
		h.b.send(cl, wire.Msg{Kind: wire.KindFrame, Frame: f, Own: own})
	}
	h.pushState()
}

func (h *brokerHandler) OnConfirm(f can.Frame) {
	if cl := h.b.clients[h.id]; cl != nil {
		h.b.send(cl, wire.Msg{Kind: wire.KindConfirm, Frame: f})
	}
	h.pushState()
}

func (h *brokerHandler) OnBusOff() {
	h.pushState()
}

// pushState reports fault-confinement transitions to the client. The
// confinement counters move silently on bus errors (the handler sees only
// successful traffic and bus-off), so each indication is also used to
// piggyback a state change observed since the last one; a transition is
// therefore reported with bounded lag rather than per-error chatter.
func (h *brokerHandler) pushState() {
	p := h.b.bus.Port(h.id)
	if p == nil || p.State() == h.lastState {
		return
	}
	h.lastState = p.State()
	cl := h.b.clients[h.id]
	if cl == nil {
		return
	}
	tec, rec := p.Counters()
	h.b.send(cl, wire.Msg{
		Kind: wire.KindState, State: p.State(),
		TEC: clampU16(tec), REC: clampU16(rec),
	})
}

// SiteDigest returns the last site digest a gateway pushed, if any.
func (b *Broker) SiteDigest(gw can.NodeID) (seg can.NodeID, view can.NodeSet, ok bool) {
	b.loop.Call(func() {
		var d wire.Msg
		if d, ok = b.digests[gw]; ok {
			seg, view = d.Seg, d.View
		}
	})
	return seg, view, ok
}

func clampU16(v int) uint16 {
	if v < 0 {
		return 0
	}
	if v > 1<<16-1 {
		return 1<<16 - 1
	}
	return uint16(v)
}

// Close shuts the broker down: stops accepting, closes every client
// connection, stops the shard writers and the bus loop. Safe to call more
// than once.
func (b *Broker) Close() {
	b.closeOnce.Do(func() {
		close(b.closed)
		b.ln.Close()
		if b.msrv != nil {
			b.msrv.Close()
		}
		b.loop.Call(func() {
			for id, cl := range b.clients {
				cl.conn.Close()
				delete(b.clients, id)
			}
			for cl := range b.taps {
				cl.conn.Close()
				delete(b.taps, cl)
			}
		})
		b.loop.Close()
		b.wg.Wait()
	})
}
