package main

// metricDef names one metric: its unit, which direction is better and, for
// an end-to-end metric, the share of the baseline by which it may worsen
// before compare calls it worse. BENCHMARK.json at the repo root repeats
// these tables; the test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEndDefs are emitted by every workload on the untraced pass. What a
// unit of work and an operation are is per workload (see workloads).
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.15},
	{"allocs_per_work", "count", "lower", 0.01},
	{"latency_p50_us", "us", "lower", 0.15},
	{"latency_p99_us", "us", "lower", 0.25},
}

// perLayerDefs are emitted on the traced pass. "_ns" metrics are host ns per
// call from a fixed-iteration loop over the layer's public entry point;
// plain names are exact counts of the traced workload (0 where the layer
// does no work on it); "virt" quantities are simulated time.
var perLayerDefs = []metricDef{
	// protocol outcomes in virtual time — exact, pinned by expected.json
	{Name: "detect_p50_virt_ms", Unit: "ms", Better: "lower"},
	{Name: "detect_p99_virt_ms", Unit: "ms", Better: "lower"},
	{Name: "protocol_bus_util_pct", Unit: "%", Better: "lower"},

	{Name: "sim.schedule_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.cancel_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.fire_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.timer_restart_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.events_fired", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},

	{Name: "can.mid_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "can.mid_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "can.frame_bits_ns", Unit: "ns", Better: "lower"},

	{Name: "bus.tx_deliver_ns", Unit: "ns", Better: "lower"},
	{Name: "bus.arbitrate8_ns", Unit: "ns", Better: "lower"},
	{Name: "bus.frames_ok", Unit: "count", Better: "lower"},
	{Name: "bus.frames_error", Unit: "count", Better: "lower"},
	{Name: "bus.frames_inconsistent", Unit: "count", Better: "lower"},

	{Name: "fastbus.tx_deliver_ns", Unit: "ns", Better: "lower"},
	{Name: "fastbus.arbitrate8_ns", Unit: "ns", Better: "lower"},
	{Name: "fastbus.batched_share", Unit: "ratio", Better: "higher"},
	{Name: "fastbus.frames_ok", Unit: "count", Better: "lower"},
	{Name: "fastbus.frames_error", Unit: "count", Better: "lower"},
	{Name: "fastbus.frames_inconsistent", Unit: "count", Better: "lower"},

	{Name: "datagram.tx_deliver_ns", Unit: "ns", Better: "lower"},
	{Name: "datagram.frames_ok", Unit: "count", Better: "lower"},
	{Name: "datagram.drop_share", Unit: "ratio", Better: "lower"},

	{Name: "stack.new_ns", Unit: "ns", Better: "lower"},
	{Name: "stack.new_allocs", Unit: "count", Better: "lower"},
	{Name: "stack.on_frame_ns.els", Unit: "ns", Better: "lower"},
	{Name: "stack.on_frame_ns.data", Unit: "ns", Better: "lower"},
	{Name: "stack.on_frame_ns.rha", Unit: "ns", Better: "lower"},
	{Name: "stack.indications", Unit: "count", Better: "lower"},
	{Name: "stack.confirms", Unit: "count", Better: "lower"},
	{Name: "stack.data_nty", Unit: "count", Better: "lower"},
	{Name: "stack.fda_nty", Unit: "count", Better: "lower"},
	{Name: "stack.fd_nty", Unit: "count", Better: "lower"},
	{Name: "stack.view_changes", Unit: "count", Better: "lower"},

	{Name: "canely.new_network_ns.fast", Unit: "ns", Better: "lower"},
	{Name: "canely.new_network_ns.bit", Unit: "ns", Better: "lower"},
	{Name: "canely.new_network_allocs", Unit: "count", Better: "lower"},
	{Name: "canely.bootstrap_ns", Unit: "ns", Better: "lower"},

	{Name: "core.node_step_ns.els", Unit: "ns", Better: "lower"},
	{Name: "core.node_step_ns.data_nty", Unit: "ns", Better: "lower"},
	{Name: "core.node_step_ns.tm_cycle", Unit: "ns", Better: "lower"},
	{Name: "core.node_step_ns.fd_expiry", Unit: "ns", Better: "lower"},
	{Name: "core.node_step_ns.rha_sign", Unit: "ns", Better: "lower"},
	{Name: "core.node_clone_ns", Unit: "ns", Better: "lower"},
	{Name: "core.node_restore_ns", Unit: "ns", Better: "lower"},
	{Name: "core.node_fingerprint_ns", Unit: "ns", Better: "lower"},

	{Name: "gossip.step_ns.tick", Unit: "ns", Better: "lower"},
	{Name: "gossip.step_ns.ping", Unit: "ns", Better: "lower"},
	{Name: "gossip.step_ns.ack", Unit: "ns", Better: "lower"},
	{Name: "gossip.clone_ns", Unit: "ns", Better: "lower"},
	{Name: "gossip.fingerprint_ns", Unit: "ns", Better: "lower"},
	{Name: "gossip.false_dead_views", Unit: "count", Better: "lower"},

	{Name: "fault.decide_ns", Unit: "ns", Better: "lower"},
	{Name: "fault.corrupted", Unit: "count", Better: "lower"},
	{Name: "fault.inconsistent", Unit: "count", Better: "lower"},

	{Name: "campaign.dispatch_ns", Unit: "ns", Better: "lower"},
	{Name: "campaign.scaling_w2", Unit: "ratio", Better: "higher"},

	{Name: "explore.steps", Unit: "count", Better: "lower"},
	{Name: "explore.ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "explore.prune_share", Unit: "ratio", Better: "higher"},
	{Name: "explore.sleep_share", Unit: "ratio", Better: "higher"},
	{Name: "explore.resume_share", Unit: "ratio", Better: "higher"},
	{Name: "explore.replay_saved", Unit: "count", Better: "higher"},
	{Name: "explore.snapshots", Unit: "count", Better: "lower"},
	{Name: "explore.snapshot_ns", Unit: "ns", Better: "lower"},
	{Name: "explore.restore_ns", Unit: "ns", Better: "lower"},
	{Name: "explore.fingerprint_ns", Unit: "ns", Better: "lower"},
	{Name: "explore.new_system_ns", Unit: "ns", Better: "lower"},

	{Name: "wire.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.write_read_ns", Unit: "ns", Better: "lower"},

	{Name: "rt.loop_post_ns", Unit: "ns", Better: "lower"},
	{Name: "rt.loop_call_ns", Unit: "ns", Better: "lower"},
	{Name: "rt.pace_floor_us", Unit: "us", Better: "lower"},
	{Name: "rt.broker_msgs_sent", Unit: "count", Better: "lower"},
	{Name: "rt.broker_frames_delivered", Unit: "count", Better: "lower"},
	{Name: "rt.broker_queue_peak", Unit: "count", Better: "lower"},
	{Name: "rt.broker_overflows", Unit: "count", Better: "lower"},

	// attribution: where the workload's wall time went, by estimate
	{Name: "share.sim", Unit: "ratio", Better: "lower"},
	{Name: "share.medium", Unit: "ratio", Better: "lower"},
	{Name: "share.stack", Unit: "ratio", Better: "lower"},
	{Name: "share.core", Unit: "ratio", Better: "lower"},
	{Name: "share.setup", Unit: "ratio", Better: "lower"},
	{Name: "share.unattributed", Unit: "ratio", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}
