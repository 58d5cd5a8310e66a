package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"canely"
	"canely/internal/can"
)

// env is what a workload instance is built from: the generated inputs
// (seed, scale) and, on the traced pass only, the span recorder and the
// layer-boundary counters. The program under test sees only cfg values
// derived from these.
type env struct {
	// seed is the base every per-batch seed is offset from.
	seed int64
	// scale shrinks the work per batch (1 = as documented; tests use 1/20).
	scale float64
	// tr and hooks are nil on the untraced pass.
	tr    *tracer
	hooks *hookCounts
	// outDir is where a workload may put scratch files (the broker socket).
	outDir string
}

// scaled returns n scaled by the work factor, at least 1.
func (e *env) scaled(n int) int {
	if s := int(float64(n) * e.scale); s > 1 {
		return s
	}
	return 1
}

// canelyHooks returns the stack hooks of the traced pass, nil otherwise.
func (e *env) canelyHooks() *canely.Hooks {
	if e.hooks == nil {
		return nil
	}
	return e.hooks.hooks()
}

// observed accumulates the exact, deterministic outputs of a workload: the
// quantities the correctness gate pins and the plain-count layer metrics.
// None of them depends on host speed.
type observed struct {
	// counts holds named exact counts ("fastbus.frames_ok", "explore.steps").
	counts map[string]float64
	// detect holds crash → view-change latencies in virtual milliseconds.
	detect []float64
	// protoBits / virt give protocol_bus_util_pct: wire bits that carried
	// ELS/FDA/RHA/JOIN/LEAVE frames over the virtual time observed.
	protoBits int64
	virt      time.Duration
	// digest folds per-run campaign metrics and final views, in run order.
	digest hash.Hash64
}

func newObserved() *observed {
	return &observed{counts: map[string]float64{}, digest: fnv.New64a()}
}

func (o *observed) count(name string, v float64) { o.counts[name] += v }

func (o *observed) fold(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		o.digest.Write(b[:])
	}
}

func (o *observed) foldFloat(v float64) { o.fold(math.Float64bits(v)) }

// protocolTypes are the message types of the paper's Figure 10 accounting.
var protocolTypes = []can.MsgType{can.TypeELS, can.TypeFDA, can.TypeRHA, can.TypeJoin, can.TypeLeave}

// addBus folds a window of medium statistics into the observations under
// the medium's layer name ("bus", "fastbus", "datagram").
func (o *observed) addBus(layer string, s canely.BusStats, virt time.Duration) {
	o.count(layer+".frames_ok", float64(s.FramesOK))
	o.count(layer+".frames_error", float64(s.FramesError))
	o.count(layer+".frames_inconsistent", float64(s.FramesInconsistent))
	for _, t := range protocolTypes {
		o.protoBits += s.BitsByType[t]
	}
	o.virt += virt
}

// protocolUtilPct is protocol_bus_util_pct at 1 Mbit/s (1 bit = 1 virt µs).
func (o *observed) protocolUtilPct() float64 {
	if o.virt <= 0 {
		return 0
	}
	return 100 * float64(can.Rate1Mbps.DurationOf(int(o.protoBits))) / float64(o.virt)
}

// meter measures one batch: the timed region's wall time and heap objects,
// the host latency of each operation inside it, and what was attempted and
// failed. Exact observations go to obs.
type meter struct {
	tr  *tracer
	obs *observed

	t0      time.Time
	m0      uint64
	wall    time.Duration
	mallocs uint64
	work    float64

	ops       []float64 // host µs per operation
	attempted int
	failed    int
	failures  []string // the first few failure messages
	incorrect []string // determinism / equivalence breaches (not trial failures)
}

// begin opens the timed region. The collection beforehand keeps the previous
// batch's garbage (and the untimed preparation's) off this batch's bill.
func (m *meter) begin() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.m0 = ms.Mallocs
	m.t0 = time.Now()
}

// end closes the timed region, crediting it with work units.
func (m *meter) end(work float64) {
	m.wall += time.Since(m.t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mallocs += ms.Mallocs - m.m0
	m.work += work
}

// op records the host latency of one operation.
func (m *meter) op(d time.Duration) { m.ops = append(m.ops, float64(d)/1e3) }

// check counts one attempted operation and, when !ok, one failure.
func (m *meter) check(ok bool, format string, args ...any) {
	m.attempted++
	if ok {
		return
	}
	m.failed++
	if len(m.failures) < 5 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

// breach records an output that is wrong rather than a trial that failed:
// two substrates disagreeing, a lost frame reappearing, and the like.
func (m *meter) breach(format string, args ...any) {
	if len(m.incorrect) < 5 {
		m.incorrect = append(m.incorrect, fmt.Sprintf(format, args...))
	}
}
