// Package rt is the live runtime binding of the CANELy protocol suite: it
// runs the same sans-I/O cores and internal/stack layer assembly as the
// simulator, but against wall-clock time and real sockets instead of the
// discrete-event scheduler and a simulated medium.
//
// The package has two halves:
//
//   - Broker is the bus side: a canelyd process accepts node connections
//     over TCP or Unix-domain sockets and emulates the CAN MAC centrally —
//     priority arbitration among pending frames, wired-AND clustering of
//     identical remote frames, per-frame duration pacing at the configured
//     bit rate and TEC/REC fault confinement — by running the frame-level
//     internal/fastbus substrate on a wall-clock-paced event loop.
//
//   - Medium/Node is the node side: a Medium dials the broker and exposes
//     the stack.Medium/stack.Port contract, so internal/stack and every
//     facade layer above it (groups, ordered delivery, clock sync,
//     dual-media redundancy across two brokers) compose unchanged. A Node
//     assembles the full per-node stack on its own Loop and offers a
//     goroutine-safe front-end.
//
// The keystone is Loop: a single-goroutine executor that owns a
// sim.Scheduler and paces it against the wall clock (virtual instant v
// occurs at wall instant epoch+v). Everything written for the simulator —
// timers, the stack binding's alarm machinery, the CommandBuf free-list
// discipline, replay recording — runs on a Loop without modification,
// because the Loop preserves the single-owner execution model the
// simulator guarantees: external goroutines inject work with Post/Call and
// never touch protocol state directly.
package rt

import (
	"os"
	"sync"
	"time"

	"canely/internal/sim"
)

// Loop drives a sim.Scheduler against the wall clock on one goroutine.
// Virtual time maps to wall time via a fixed epoch: the scheduler is
// advanced to now-epoch before the loop sleeps, and every scheduled event
// fires at (or as soon as possible after) its wall-clock deadline.
//
// All protocol state bound to the loop's scheduler must be touched only
// from the loop goroutine; other goroutines inject work with Post (fire
// and forget) or Call (synchronous). This carries the simulator's
// single-owner discipline — and with it the reusable CommandBuf free-lists
// of the stack binding — into a concurrent process unchanged.
type Loop struct {
	sched *sim.Scheduler
	epoch time.Time

	posts chan func()

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewLoop creates a loop positioned at virtual time zero (= wall clock
// now). Run must be started on its own goroutine before the loop is used.
func NewLoop() *Loop {
	return &Loop{
		sched: sim.NewScheduler(),
		epoch: time.Now(),
		posts: make(chan func(), 256),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// StartLoop creates a loop and starts Run on a new goroutine.
func StartLoop() *Loop {
	l := NewLoop()
	go l.Run()
	return l
}

// Scheduler returns the loop's scheduler. It must only be used from the
// loop goroutine (i.e. from posted functions or protocol callbacks).
func (l *Loop) Scheduler() *sim.Scheduler { return l.sched }

// Elapsed returns the wall-clock time since the loop's epoch — the live
// counterpart of a medium's virtual time base. Safe from any goroutine.
func (l *Loop) Elapsed() time.Duration { return time.Since(l.epoch) }

// now converts the current wall instant to virtual time.
func (l *Loop) now() sim.Time { return sim.Time(time.Since(l.epoch)) }

// Run executes the loop until Close. It alternates between running every
// scheduler event whose deadline has passed on the wall clock and sleeping
// until the earliest of the next deadline or injected work.
func (l *Loop) Run() {
	defer close(l.done)
	w := newWaker()
	defer w.close()
	for {
		l.sched.RunUntil(l.now())

		if next := l.sched.NextDeadline(); next != sim.Never {
			// An already-due deadline still needs a wake-up: arm(0) would
			// disarm.
			w.arm(max(time.Duration(next)-l.Elapsed(), time.Nanosecond))
		} else {
			w.arm(0)
		}

		select {
		case fn := <-l.posts:
			// Advance the scheduler clock (firing any events already due)
			// before injected work runs: protocol bindings stamp events with
			// sched.Now(), and a clock stale from the last wake would move
			// every timeout computed from such a stamp systematically early.
			l.sched.RunUntil(l.now())
			fn()
			l.drain()
		case <-w.c:
		case <-l.stop:
			l.drain()
			return
		}
	}
}

// waker is the Loop's sleep source: arm(d) schedules one wake-up on c
// after d (replacing any earlier one; d <= 0 disarms), and close releases
// it. The portable source is a time.Timer, but the Go runtime's netpoller
// rounds every sleep under 1 ms up to a whole millisecond, which would put
// every event of a 1 Mbit/s bus (~120 µs per frame) on a 1 ms tick. Where
// the kernel offers a timer descriptor (waker_linux.go), the runtime
// poller watches that instead and one reader goroutine forwards each
// expiry to c, so a wake-up lands within tens of µs of its deadline
// without spinning.
type waker struct {
	c     <-chan time.Time // timer.C, or fed by read
	timer *time.Timer      // nil while file is in use

	file *os.File // timer descriptor, owned by the runtime poller
	fd   int      // file's descriptor: re-arming via file.SyscallConn would allocate
	done chan struct{}
}

func newWaker() *waker {
	file, fd, err := openTimerFD()
	if err != nil {
		timer := time.NewTimer(time.Hour)
		timer.Stop()
		return &waker{c: timer.C, timer: timer}
	}
	c := make(chan time.Time, 1)
	w := &waker{c: c, file: file, fd: fd, done: make(chan struct{})}
	go w.read(c)
	return w
}

func (w *waker) arm(d time.Duration) {
	if w.timer != nil {
		w.timer.Stop()
	}
	// Drop a wake-up left over from an earlier arm that the loop did not
	// consume (it woke for a post instead).
	select {
	case <-w.c:
	default:
	}
	switch {
	case w.timer == nil:
		setTimerFD(w.fd, d)
	case d > 0:
		w.timer.Reset(d)
	}
}

// read forwards timer-descriptor expiries to c until the file is closed.
// The send never blocks: a wake-up already pending covers this one.
func (w *waker) read(c chan<- time.Time) {
	defer close(w.done)
	var count [8]byte // expirations since the last read
	for {
		if _, err := w.file.Read(count[:]); err != nil {
			return
		}
		select {
		case c <- time.Time{}:
		default:
		}
	}
}

func (w *waker) close() {
	if w.timer != nil {
		w.timer.Stop()
		return
	}
	w.file.Close() // unblocks read
	<-w.done
}

// drain runs queued posts without blocking.
func (l *Loop) drain() {
	for {
		select {
		case fn := <-l.posts:
			fn()
		default:
			return
		}
	}
}

// Post schedules fn to run on the loop goroutine. It blocks only when the
// injection queue is full (backpressure), and drops the work if the loop
// has been closed.
func (l *Loop) Post(fn func()) {
	select {
	case l.posts <- fn:
	case <-l.done:
	}
}

// Call runs fn on the loop goroutine and waits for it to complete. It
// returns false when the loop shut down before fn could run. Call must not
// be used from the loop goroutine itself — that would deadlock; loop-side
// code simply calls fn directly.
func (l *Loop) Call(fn func()) bool {
	ran := make(chan struct{})
	select {
	case l.posts <- func() { fn(); close(ran) }:
	case <-l.done:
		return false
	}
	select {
	case <-ran:
		return true
	case <-l.done:
		// The loop drains its queue on shutdown, so fn may still have run;
		// report conservatively only if it did.
		select {
		case <-ran:
			return true
		default:
			return false
		}
	}
}

// Close stops the loop and waits for the loop goroutine to exit. Queued
// posts are drained before Run returns.
func (l *Loop) Close() {
	l.stopOnce.Do(func() { close(l.stop) })
	<-l.done
}
