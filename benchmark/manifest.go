package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file is the runner's half of BENCHMARK.json: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics with the prediction each one carries (which end-to-end metric
// it should move, on which workloads, and where no move is predicted).
// manifest_test.go fails when the committed BENCHMARK.json and these
// tables disagree, or when a workload emits a name that is not declared.

// runSeconds is how long one run measures. Workloads with a fixed-rate
// phase spend two thirds of it saturated and one third at fixed rate;
// the others spend all of it saturated.
const runSeconds = 15

// benchPath is the one directory the benchmark owns.
const benchPath = "benchmark"

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`

	// The prediction, kept beside the declaration so the interaction
	// table in README.md cannot drift from what the runner emits.
	// Source is seam, counter, replay or self; Moves is the end-to-end
	// metric the layer metric should move, On the workloads where it
	// should, NoMove the workloads where no change is predicted.
	Source string   `json:"-"`
	Moves  string   `json:"-"`
	On     []string `json:"-"`
	NoMove []string `json:"-"`
}

// Workload names are fixed: later issues cite them.
const (
	wTransit = "transit_wire"
	wEdge    = "edge_wire"
	wEngine  = "engine_mix"
	wControl = "control_ring"
	wLSM     = "lsm_rtl"
)

var workloadDecls = []workloadDecl{
	{wTransit, "16-byte one-label transit over loopback UDP through a sharded pumped node: per-packet cost of transport, guard, router pump and dataplane queues dominates; swmpls/infobase do almost nothing"},
	{wEdge, "1 KiB unlabelled IPv4 through the same node as LER: every packet leaves the fast path (serial Receive under the network lock, LPM + push), bytes dominate codec and clone"},
	{wEngine, "in-process dataplane.Engine, seeded label-op mix with 5% expected discards and 10 table publishes/s: flow cache, swmpls, infobase and RCU publish work; transport/router/guard do none"},
	{wControl, "32-router ring on simulated links: sessions up, 256 LSPs signalled, one link failed, reroute, teardown; only signaling, te, netsim and table installs run"},
	{wLSM, "cycle-accurate label stack modifier (RTL) at 1024 entries/level against cost model, device and swmpls: the paper's own contribution, rtl/lsm/device/linear infobase only"},
}

// End-to-end metrics. A bound is max(5%, three times the widest
// interquartile spread any workload showed over ten seeds), capped at
// the contract's 25% (README.md has the measurements). Two of the
// issue's eight candidates are not here but among the per-layer
// diagnostics, prefixed e2e.: fail_ratio is 0 at seed and the contract
// forbids metrics that are 0, so failures travel in the result's
// attempted/failed fields; lat_p99_us spread 47% on transit_wire, wider
// than any bound the contract allows.
var e2eDecls = []e2eDecl{
	{"ops_per_s", "op/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

var (
	wire     = []string{wTransit, wEdge}
	notWire  = []string{wEngine, wControl, wLSM}
	dataOnly = []string{wTransit, wEdge, wEngine}
	simOnly  = []string{wControl, wLSM}
	all      = []string{wTransit, wEdge, wEngine, wControl, wLSM}
)

var layerDecls = []layerDecl{
	// transport
	{"transport.encode_ns_per_pkt", "ns", "lower", "replay", "cpu_us_per_op", wire, notWire},
	{"transport.decode_ns_per_pkt", "ns", "lower", "replay", "cpu_us_per_op", wire, notWire},
	{"transport.codec_allocs_per_pkt", "count", "lower", "replay", "allocs_per_op", wire, notWire},
	{"transport.send_batch_ns_per_pkt", "ns", "lower", "seam", "ops_per_s", wire, notWire},
	{"transport.tx_syscalls_per_pkt", "count", "lower", "counter", "cpu_us_per_op", wire, notWire},
	{"transport.rx_syscalls_per_pkt", "count", "lower", "counter", "cpu_us_per_op", wire, notWire},
	{"transport.pkts_per_datagram", "count", "higher", "counter", "ops_per_s", []string{wTransit}, notWire},
	{"transport.decode_fail_total", "count", "lower", "counter", "ops_per_s", wire, notWire},
	{"transport.raw_wire_pps", "1/s", "higher", "seam", "ops_per_s", []string{wTransit}, notWire},
	// guard
	{"guard.admit_ns_per_pkt", "ns", "lower", "seam", "cpu_us_per_op", wire, notWire},
	{"guard.admit_ratio", "ratio", "higher", "counter", "ops_per_s", wire, notWire},
	{"guard.drops_total", "count", "lower", "counter", "ops_per_s", wire, notWire},
	// packet
	{"packet.clone_ns_per_pkt", "ns", "lower", "replay", "ops_per_s", wire, simOnly},
	{"packet.clone_allocs_per_pkt", "count", "lower", "replay", "allocs_per_op", wire, simOnly},
	// router
	{"router.feed_ns_per_pkt", "ns", "lower", "seam", "ops_per_s", []string{wTransit}, notWire},
	{"router.slow_path_ratio", "ratio", "lower", "counter", "ops_per_s", wire, notWire},
	{"router.serial_ns_per_pkt", "ns", "lower", "seam", "ops_per_s", []string{wEdge}, notWire},
	{"router.forwarded_total", "count", "higher", "counter", "ops_per_s", wire, notWire},
	{"router.dropped_total", "count", "lower", "counter", "ops_per_s", wire, notWire},
	{"router.conservation_residual", "count", "lower", "counter", "ops_per_s", wire, notWire},
	// dataplane
	{"dataplane.worker_busy_ns_per_pkt", "ns", "lower", "counter", "cpu_us_per_op", []string{wTransit, wEngine}, []string{wEdge, wControl, wLSM}},
	{"dataplane.worker_busy_share", "ratio", "lower", "counter", "cpu_us_per_op", []string{wTransit, wEngine}, []string{wEdge, wControl, wLSM}},
	{"dataplane.queue_drops_total", "count", "lower", "counter", "ops_per_s", []string{wTransit, wEngine}, []string{wEdge, wControl, wLSM}},
	{"dataplane.flowcache_hit_ratio", "ratio", "higher", "counter", "ops_per_s", []string{wEngine}, []string{wEdge, wControl, wLSM}},
	{"dataplane.egress_batch_mean_pkts", "count", "higher", "counter", "ops_per_s", []string{wTransit, wEngine}, []string{wEdge, wControl, wLSM}},
	{"dataplane.egress_flush_timer_share", "ratio", "lower", "counter", "lat_p50_us", []string{wTransit, wEngine}, []string{wEdge, wControl, wLSM}},
	{"dataplane.submit_ns_per_pkt", "ns", "lower", "seam", "ops_per_s", []string{wEngine}, []string{wEdge, wControl, wLSM}},
	{"dataplane.publish_ns_per_update", "ns", "lower", "seam", "ops_per_s", []string{wEngine}, []string{wTransit, wEdge, wControl, wLSM}},
	{"dataplane.process_inline_ns_per_pkt", "ns", "lower", "replay", "ops_per_s", []string{wEdge}, simOnly},
	// swmpls
	{"swmpls.forward_ns_per_pkt", "ns", "lower", "replay", "ops_per_s", []string{wEngine, wEdge}, []string{wControl}},
	{"swmpls.resolve_ns_per_pkt", "ns", "lower", "replay", "ops_per_s", []string{wEngine, wEdge}, []string{wTransit, wControl}},
	{"swmpls.apply_ns_per_pkt", "ns", "lower", "replay", "ops_per_s", []string{wEngine}, []string{wControl}},
	{"swmpls.clone_ns_per_table", "ns", "lower", "replay", "ops_per_s", []string{wEngine}, []string{wTransit, wEdge, wLSM}},
	{"swmpls.drop_lookup_miss_total", "count", "lower", "counter", "ops_per_s", []string{wEngine, wLSM}, []string{wTransit, wEdge, wControl}},
	{"swmpls.drop_ttl_expired_total", "count", "lower", "counter", "ops_per_s", []string{wEngine}, []string{wTransit, wEdge, wControl, wLSM}},
	{"swmpls.drop_inconsistent_total", "count", "lower", "counter", "ops_per_s", []string{wEngine}, []string{wTransit, wEdge, wControl, wLSM}},
	// infobase
	{"infobase.lookup_ns_per_op", "ns", "lower", "replay", "ops_per_s", []string{wEngine}, []string{wTransit, wControl}},
	{"infobase.write_ns_per_op", "ns", "lower", "replay", "setup_s", dataOnly, []string{wControl}},
	// lsm / device
	{"lsm.sim_cycles_per_host_s", "1/s", "higher", "seam", "ops_per_s", []string{wLSM}, []string{wTransit, wEdge, wEngine, wControl}},
	{"lsm.cycles_per_pkt_mean", "count", "lower", "seam", "lat_p50_us", []string{wLSM}, []string{wTransit, wEdge, wEngine, wControl}},
	{"lsm.search_cycle_share", "ratio", "lower", "seam", "lat_p50_us", []string{wLSM}, []string{wTransit, wEdge, wEngine, wControl}},
	{"lsm.sim_lat_p50_us", "us", "lower", "seam", "lat_p50_us", []string{wLSM}, []string{wTransit, wEdge, wEngine, wControl}},
	{"lsm.sim_lat_p99_us", "us", "lower", "seam", "lat_p50_us", []string{wLSM}, []string{wTransit, wEdge, wEngine, wControl}},
	{"lsm.behavioral_ns_per_update", "ns", "lower", "seam", "ops_per_s", []string{wLSM}, []string{wTransit, wEdge, wEngine, wControl}},
	{"lsm.model_mismatch_total", "count", "lower", "seam", "ops_per_s", []string{wLSM}, []string{wTransit, wEdge, wEngine, wControl}},
	{"device.process_ns_per_pkt", "ns", "lower", "seam", "ops_per_s", []string{wLSM}, []string{wTransit, wEdge, wEngine, wControl}},
	// signaling / te
	{"signaling.msgs_per_lsp", "count", "lower", "counter", "ops_per_s", []string{wControl}, []string{wTransit, wEdge, wEngine, wLSM}},
	{"signaling.failover_sim_ms", "ms", "lower", "counter", "lat_p50_us", []string{wControl}, []string{wTransit, wEdge, wEngine, wLSM}},
	{"signaling.sessions_up_sim_ms", "ms", "lower", "counter", "setup_s", []string{wControl}, []string{wTransit, wEdge, wEngine, wLSM}},
	{"signaling.codec_ns_per_msg", "ns", "lower", "replay", "cpu_us_per_op", []string{wControl}, []string{wTransit, wEdge, wEngine, wLSM}},
	{"signaling.host_us_per_lsp", "us", "lower", "seam", "ops_per_s", []string{wControl}, []string{wTransit, wEdge, wEngine, wLSM}},
	{"te.cspf_ns_per_path", "ns", "lower", "seam", "cpu_us_per_op", []string{wControl}, []string{wTransit, wEdge, wEngine, wLSM}},
	// the load generator and the tracer themselves: validity of the rest
	{"loadgen.send_ns_per_pkt", "ns", "lower", "seam", "cpu_us_per_op", wire, notWire},
	{"loadgen.late_p99_us", "us", "lower", "self", "lat_p50_us", dataOnly, simOnly},
	{"loadgen.offered_pps", "1/s", "higher", "self", "lat_p50_us", dataOnly, simOnly},
	{"trace.overhead_ratio", "ratio", "higher", "self", "ops_per_s", all, nil},
	{"trace.cpu_accounted_share", "ratio", "higher", "self", "cpu_us_per_op", []string{wTransit}, notWire},
	// end-to-end candidates demoted to diagnostics
	{"e2e.fail_ratio", "ratio", "lower", "self", "ops_per_s", all, nil},
	{"e2e.lat_p99_us", "us", "lower", "self", "lat_p50_us", all, nil},
	{"e2e.setup_peak_rss_mb", "MiB", "lower", "self", "peak_rss_mb", all, nil},
}

// manifest is BENCHMARK.json as the contract defines it: exactly these
// keys, nothing else.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []e2eDecl      `json:"end_to_end"`
	PerLayer   []layerDecl    `json:"per_layer"`
}

func builtinManifest() manifest {
	return manifest{
		Command:    []string{"bash", benchPath + "/run.sh"},
		Paths:      []string{benchPath},
		RunSeconds: runSeconds,
		Workloads:  workloadDecls,
		EndToEnd:   e2eDecls,
		PerLayer:   layerDecls,
	}
}

// manifestJSON renders the manifest the way BENCHMARK.json is committed.
func manifestJSON() []byte {
	blob, err := json.MarshalIndent(builtinManifest(), "", "  ")
	if err != nil {
		panic(err) // static data
	}
	return append(blob, '\n')
}

func e2eNames() []string {
	out := make([]string, len(e2eDecls))
	for i, d := range e2eDecls {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func layerNames() []string {
	out := make([]string, len(layerDecls))
	for i, d := range layerDecls {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func unitOf(name string) string {
	for _, d := range e2eDecls {
		if d.Name == name {
			return d.Unit
		}
	}
	for _, d := range layerDecls {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

func e2eDeclOf(name string) (e2eDecl, bool) {
	for _, d := range e2eDecls {
		if d.Name == name {
			return d, true
		}
	}
	return e2eDecl{}, false
}

// layerTable prints the interaction table of README.md from the
// declarations the runner emits from.
func layerTable(w io.Writer) {
	fmt.Fprintln(w, "| metric | unit | source | should move | on | no move predicted on |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, d := range layerDecls {
		noMove := strings.Join(d.NoMove, ", ")
		if noMove == "" {
			noMove = "—"
		}
		fmt.Fprintf(w, "| `%s` | %s | %s | `%s` | %s | %s |\n", d.Name, d.Unit, d.Source, d.Moves, strings.Join(d.On, ", "), noMove)
	}
}
