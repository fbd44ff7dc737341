package main

import (
	"fmt"
	"strings"

	"adhocsim/internal/scenario"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are the untraced run's metrics, in report order;
// BENCHMARK.json's end_to_end list is the same list. failed_ratio is
// printed beside them and carried by the report's attempted and failed
// fields.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"rep_ms", "ms"},
	{"ns_per_logical_event", "ns"},
	{"cpu_ms_per_rep", "ms"},
	{"alloc_mb_per_rep", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are the traced run's metrics, in report order, with
// their units. BENCHMARK.json's per_layer list is the same list.
var perLayerMetrics = []metricDef{
	{"scenario.build_ms", "ms"},
	{"scenario.expand_ms", "ms"},
	{"scenario.reset_ms", "ms"},
	{"scenario.run_ms", "ms"},
	{"scenario.collect_ms", "ms"},
	{"scenario.retained_heap_mb", "MB"},
	{"scenario.cpu_share", "ratio"},
	{"sim.fired_per_rep", "count"},
	{"sim.pushes_per_rep", "count"},
	{"sim.calendar_resizes", "count"},
	{"sim.fired_per_logical", "ratio"},
	{"sim.cpu_share", "ratio"},
	{"exec.windows", "count"},
	{"exec.messages", "count"},
	{"exec.events_per_window", "count"},
	{"exec.load_balance", "ratio"},
	{"exec.barrier_wait_share", "ratio"},
	{"exec.speedup_vs_seq", "ratio"},
	{"exec.seq_mismatch_ratio", "ratio"},
	{"exec.cpu_share", "ratio"},
	{"medium.transmissions", "count"},
	{"medium.deliveries", "count"},
	{"medium.phy_errors", "count"},
	{"medium.gain_hit_ratio", "ratio"},
	{"medium.fanout_replay_ratio", "ratio"},
	{"medium.candidate_reuse_ratio", "ratio"},
	{"medium.soa_rescans", "count"},
	{"medium.cpu_share", "ratio"},
	{"phy.cpu_share", "ratio"},
	{"mac.data_tx", "count"},
	{"mac.retx_ratio", "ratio"},
	{"mac.rts_tx", "count"},
	{"mac.ack_timeouts", "count"},
	{"mac.eifs_deferrals", "count"},
	{"mac.tx_drops", "count"},
	{"mac.cpu_share", "ratio"},
	{"transport.tcp_segs_sent", "count"},
	{"transport.tcp_useful_ratio", "ratio"},
	{"transport.cpu_share", "ratio"},
	{"app.cpu_share", "ratio"},
	{"network.forwarded", "count"},
	{"network.dropped", "count"},
	{"network.cpu_share", "ratio"},
	{"routing.adverts", "count"},
	{"routing.ctl_bytes_per_app_byte", "ratio"},
	{"routing.cpu_share", "ratio"},
	{"faults.crashes_applied", "count"},
	{"faults.restarts_applied", "count"},
	{"faults.cpu_share", "ratio"},
	{"runner.cpu_share", "ratio"},
	{"obs.cpu_share", "ratio"},
	{"obs.overhead_ratio", "ratio"},
	{"node.cpu_share", "ratio"},
	{"frame.cpu_share", "ratio"},
	{"gc.cycles_per_rep", "count"},
	{"gc.pause_ms_per_rep", "ms"},
	{"gc.cpu_share", "ratio"},
	{"alloc.cpu_share", "ratio"},
	{"other.cpu_share", "ratio"},
	{"host.anchor_ms", "ms"},
}

// zeroNotes explains every per-layer metric that reads 0: the workload
// bypasses that layer, or the work it counts never happened.
func zeroNotes(panels []panel, values map[string]float64, profileSamples int) []string {
	var parallel, tcp, routed, faulted, rts, calendar bool
	for _, p := range panels {
		s := p.spec
		parallel = parallel || s.Parallel != nil
		routed = routed || s.Routing != nil
		faulted = faulted || s.Faults != nil
		rts = rts || s.MAC.RTSCTS
		calendar = calendar || s.Scheduler == "calendar"
		for _, f := range s.Flows {
			tcp = tcp || f.Transport == scenario.TransportTCP
		}
	}
	var notes []string
	for _, m := range perLayerMetrics {
		name := m.name
		if values[name] != 0 {
			continue
		}
		layer, _, _ := strings.Cut(name, ".")
		var why string
		switch {
		case strings.HasSuffix(name, ".cpu_share"):
			why = fmt.Sprintf("no sample of the %d in the CPU profile landed in this layer", profileSamples)
		case name == "exec.seq_mismatch_ratio" && parallel:
			why = "every parallel replication matched its sequential reference"
		case layer == "exec" && !parallel:
			why = "the sequential kernel has no region executor"
		case name == "scenario.reset_ms" && parallel:
			why = "parallel instances cannot Reset, so every replication rebuilds (see scenario.build_ms)"
		case name == "sim.calendar_resizes" && !calendar:
			why = "the heap scheduler has no calendar to resize"
		case layer == "transport" && !tcp:
			why = "no TCP flows"
		case (layer == "routing" || name == "network.forwarded") && !routed:
			why = "single-hop traffic: no route control plane and no relaying"
		case layer == "faults" && !faulted:
			why = "no faults block in the spec"
		case name == "mac.rts_tx" && !rts:
			why = "basic access: no panel enables RTS/CTS"
		case layer == "gc":
			why = "no GC cycle completed during the traced replications"
		default:
			why = "the counted event never occurred on this workload"
		}
		notes = append(notes, fmt.Sprintf("%s reads 0: %s", name, why))
	}
	return notes
}
