// Package replay records the event/command streams of the sans-I/O
// protocol cores during a live run and deterministically re-executes them.
//
// Because a core is pure — a proto.Machine with no scheduler, bus or trace
// handles — its entire behaviour is a function of its configuration and
// the event sequence it consumed. A Log captures both; Verify rebuilds
// fresh cores from the recorded configurations, pumps the recorded events
// through them in order, and asserts command-for-command equality with the
// recorded outputs. Any divergence (a non-deterministic core, an unrecorded
// input, a behaviour change between versions) is reported with its exact
// position.
//
// Logs serialize to JSON (Save/Load), so a capture from one binary can be
// re-verified by another — the regression harness behind golden traces and
// `canelysim -record/-replay`.
package replay

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"canely/internal/can"
	"canely/internal/core"
	"canely/internal/core/proto"
	"canely/internal/federation"
	"canely/internal/gossip"
)

// NodeConfig is the recorded configuration of one node's core: a composite
// protocol core (Core), a gateway's federation core (Fed) or a SWIM
// gossip core (Gossip) — exactly one is set. Gateway and node ids share one
// namespace per log; drivers keep separate logs when they collide.
type NodeConfig struct {
	ID     can.NodeID         `json:"id"`
	Core   *core.Config       `json:"core,omitempty"`
	Fed    *federation.Config `json:"fed,omitempty"`
	Gossip *gossip.Config     `json:"gossip,omitempty"`
}

// Record is one Step of one node: the event consumed and the fully-routed
// command stream it produced.
type Record struct {
	Node     can.NodeID      `json:"node"`
	Event    proto.Event     `json:"event"`
	Commands []proto.Command `json:"commands,omitempty"`
}

// Log is a captured run: the core configurations plus the global,
// delivery-ordered record sequence.
type Log struct {
	Nodes   []NodeConfig `json:"nodes"`
	Records []Record     `json:"records"`
}

// New creates an empty log.
func New() *Log { return &Log{} }

// Register adds a node's configuration. Must be called before any of the
// node's records are appended. The log keeps nc's config pointer: hand in
// one nothing else will mutate.
func (l *Log) Register(nc NodeConfig) { l.Nodes = append(l.Nodes, nc) }

// Append records one Step. The command slice is copied: callers (the stack
// binding) hand in views of reused buffers that are invalid past the call.
// Recording is a diagnostic mode, so this cold-path allocation is fine.
func (l *Log) Append(id can.NodeID, ev proto.Event, cmds []proto.Command) {
	var copied []proto.Command
	if len(cmds) > 0 {
		copied = make([]proto.Command, len(cmds))
		copy(copied, cmds)
	}
	l.Records = append(l.Records, Record{Node: id, Event: ev, Commands: copied})
}

// Save writes the log as indented JSON.
func (l *Log) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(l)
}

// SaveFile writes the log to a new file at path.
func (l *Log) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a log written by Save.
func Load(r io.Reader) (*Log, error) {
	var l Log
	if err := json.NewDecoder(r).Decode(&l); err != nil {
		return nil, fmt.Errorf("replay: decoding log: %w", err)
	}
	return &l, nil
}

// constructors is the one place a recorded configuration becomes a core:
// one row per NodeConfig key, each returning nil when its key is unset.
// Adding a protocol to the replay format is adding a field and a row.
var constructors = [...]struct {
	key   string
	build func(NodeConfig) (proto.Machine, error)
}{
	{"core", func(nc NodeConfig) (proto.Machine, error) {
		if nc.Core == nil {
			return nil, nil
		}
		return core.New(nc.ID, *nc.Core)
	}},
	{"fed", func(nc NodeConfig) (proto.Machine, error) {
		if nc.Fed == nil {
			return nil, nil
		}
		return federation.New(*nc.Fed)
	}},
	{"gossip", func(nc NodeConfig) (proto.Machine, error) {
		if nc.Gossip == nil {
			return nil, nil
		}
		return gossip.New(nc.ID, *nc.Gossip)
	}},
}

// New builds the fresh core the configuration describes. A configuration
// with no key set, or with more than one, describes no single core and is
// rejected: a log is outside input, and preferring one key silently would
// check the node's records against the wrong protocol.
func (nc NodeConfig) New() (proto.Machine, error) {
	var m proto.Machine
	for _, c := range constructors {
		built, err := c.build(nc)
		if err != nil {
			return nil, fmt.Errorf("replay: building the %s core of node %v: %w", c.key, nc.ID, err)
		}
		if built == nil {
			continue
		}
		if m != nil {
			return nil, fmt.Errorf("replay: node %v registered with more than one core configuration", nc.ID)
		}
		m = built
	}
	if m == nil {
		return nil, fmt.Errorf("replay: node %v registered without a core configuration", nc.ID)
	}
	return m, nil
}

// Verify re-executes the log on fresh cores and checks command-for-command
// equality. It returns nil when the replay reproduces the capture exactly.
func (l *Log) Verify() error {
	nodes := make(map[can.NodeID]proto.Machine, len(l.Nodes))
	for _, nc := range l.Nodes {
		if nodes[nc.ID] != nil {
			return fmt.Errorf("replay: node %v registered twice", nc.ID)
		}
		m, err := nc.New()
		if err != nil {
			return err
		}
		nodes[nc.ID] = m
	}
	var buf proto.CommandBuf
	for i, rec := range l.Records {
		n := nodes[rec.Node]
		if n == nil {
			return fmt.Errorf("replay: record %d references unregistered node %v", i, rec.Node)
		}
		buf.Reset()
		n.StepInto(rec.Event, &buf)
		got := buf.Commands()
		if len(got) != len(rec.Commands) {
			return fmt.Errorf("replay: record %d (node %v, %v): %d commands, recorded %d\n got: %v\nwant: %v",
				i, rec.Node, rec.Event, len(got), len(rec.Commands), got, rec.Commands)
		}
		for j := range got {
			if got[j] != rec.Commands[j] {
				return fmt.Errorf("replay: record %d (node %v, %v) command %d:\n got: %v\nwant: %v",
					i, rec.Node, rec.Event, j, got[j], rec.Commands[j])
			}
		}
	}
	return nil
}

// Render formats the record stream as stable text, one line per record —
// the byte-exact form golden-trace tests pin.
func (l *Log) Render() string {
	var sb strings.Builder
	for _, rec := range l.Records {
		fmt.Fprintf(&sb, "%v n%02d %v", rec.Event.At, int(rec.Node), rec.Event)
		for _, c := range rec.Commands {
			fmt.Fprintf(&sb, " | %v", c)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
