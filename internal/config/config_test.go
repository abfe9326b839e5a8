package config

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"embeddedmpls/internal/label"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/telemetry"
)

const goodScenario = `{
  "name": "qos demo",
  "duration_s": 0.5,
  "nodes": [
    {"name": "in", "plane": "hardware", "type": "ler"},
    {"name": "core", "plane": "hardware", "type": "lsr"},
    {"name": "out", "plane": "software"}
  ],
  "links": [
    {"a": "in", "b": "core", "rate_mbps": 10, "delay_ms": 1, "queue": "priority"},
    {"a": "core", "b": "out", "rate_mbps": 2, "delay_ms": 1, "queue": "priority", "queue_cap": 32}
  ],
  "lsps": [
    {"id": "voice", "dst": "10.9.0.1", "path": ["in", "core", "out"], "cos": 5},
    {"id": "bulk", "dst": "10.9.0.2", "from": "in", "to": "out", "bandwidth_mbps": 1}
  ],
  "flows": [
    {"id": 1, "kind": "voip", "from": "in", "dst": "10.9.0.1"},
    {"id": 2, "kind": "bulk", "from": "in", "dst": "10.9.0.2", "rate_mbps": 4, "size_bytes": 1000}
  ]
}`

func TestParseAddr(t *testing.T) {
	a, err := ParseAddr("192.168.1.10")
	if err != nil || a != packet.AddrFrom(192, 168, 1, 10) {
		t.Errorf("ParseAddr = %v, %v", a, err)
	}
	for _, bad := range []string{"", "1.2.3", "1.2.3.4.5", "1.2.3.x", "1.2.3.300", "-1.2.3.4"} {
		if _, err := ParseAddr(bad); err == nil {
			t.Errorf("ParseAddr(%q) accepted", bad)
		}
	}
}

func TestLoadGoodScenario(t *testing.T) {
	s, err := Load(strings.NewReader(goodScenario))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "qos demo" || len(s.Nodes) != 3 || len(s.LSPs) != 2 || len(s.Flows) != 2 {
		t.Errorf("parsed scenario %+v", s)
	}
}

func TestLoadRejectsBadScenarios(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"nodes":[{"name":"a"}], "bogus": 1}`,
		"no nodes":      `{"nodes":[]}`,
		"dup node":      `{"nodes":[{"name":"a"},{"name":"a"}]}`,
		"bad plane":     `{"nodes":[{"name":"a","plane":"fpga"}]}`,
		"bad type":      `{"nodes":[{"name":"a","type":"core"}]}`,
		"bad link":      `{"nodes":[{"name":"a"}],"links":[{"a":"a","b":"ghost","rate_mbps":1}]}`,
		"zero rate":     `{"nodes":[{"name":"a"},{"name":"b"}],"links":[{"a":"a","b":"b"}]}`,
		"bad queue":     `{"nodes":[{"name":"a"},{"name":"b"}],"links":[{"a":"a","b":"b","rate_mbps":1,"queue":"lifo"}]}`,
		"lsp no path":   `{"nodes":[{"name":"a"}],"lsps":[{"id":"l","dst":"1.2.3.4"}]}`,
		"lsp bad dst":   `{"nodes":[{"name":"a"}],"lsps":[{"id":"l","dst":"zzz","path":["a","b"]}]}`,
		"flow bad src":  `{"nodes":[{"name":"a"}],"flows":[{"id":1,"kind":"voip","from":"x","dst":"1.2.3.4"}]}`,
		"flow bad kind": `{"nodes":[{"name":"a"}],"flows":[{"id":1,"kind":"warp","from":"a","dst":"1.2.3.4"}]}`,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(body)); err == nil {
				t.Errorf("accepted: %s", body)
			}
		})
	}
}

func TestBuildAndRunScenario(t *testing.T) {
	s, err := Load(strings.NewReader(goodScenario))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Egresses) != 1 || b.Egresses[0] != "out" {
		t.Errorf("egresses = %v", b.Egresses)
	}
	end := b.Run()
	if end < 0.5 {
		t.Errorf("simulation ended at %gs, want >= duration", end)
	}
	voice := b.Collector.Flow(1)
	bulk := b.Collector.Flow(2)
	if voice.Sent.Events == 0 || bulk.Sent.Events == 0 {
		t.Fatal("flows generated no traffic")
	}
	// Priority queues on a congested core: voice delivers cleanly.
	if voice.LossRate() != 0 {
		t.Errorf("voice loss %.1f%%", 100*voice.LossRate())
	}
	if bulk.LossRate() == 0 {
		t.Error("bulk saw no loss at 2x overload")
	}
}

func TestBuildFailures(t *testing.T) {
	// CSPF cannot satisfy the bandwidth.
	s, err := Load(strings.NewReader(`{
	  "duration_s": 1,
	  "nodes": [{"name":"a"},{"name":"b"}],
	  "links": [{"a":"a","b":"b","rate_mbps":1,"delay_ms":1}],
	  "lsps": [{"id":"l","dst":"10.0.0.1","from":"a","to":"b","bandwidth_mbps":5}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Build(); err == nil {
		t.Error("infeasible LSP built")
	}
	// Flow that stops before it starts.
	s2, err := Load(strings.NewReader(`{
	  "duration_s": 1,
	  "nodes": [{"name":"a"},{"name":"b"}],
	  "links": [{"a":"a","b":"b","rate_mbps":1,"delay_ms":1}],
	  "lsps": [{"id":"l","dst":"10.0.0.1","path":["a","b"]}],
	  "flows": [{"id":1,"kind":"voip","from":"a","dst":"10.0.0.1","start_s":2}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Build(); !errors.Is(err, ErrValidation) {
		t.Errorf("bad flow window: %v", err)
	}
	// A socket link cannot signal in simulated time.
	s2.Links[0].Transport = "udp"
	if _, err := s2.Build(); !errors.Is(err, ErrValidation) {
		t.Errorf("in-process build over a udp link: %v", err)
	}
	// Generator knobs missing.
	for _, kind := range []string{"cbr", "bulk", "poisson", "onoff"} {
		sc := &Scenario{DurationS: 1}
		if _, err := sc.generator(Flow{ID: 1, Kind: kind, Dst: "10.0.0.1"}); err == nil {
			t.Errorf("%s with no knobs accepted", kind)
		}
	}
}

// TestShippedScenarioFiles keeps the repository's scenarios/ directory
// loadable and buildable — a stale example file is a broken quickstart.
func TestShippedScenarioFiles(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no shipped scenario files found")
	}
	for _, path := range matches {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			s, err := Load(f)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Build(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// distributedLine renders a three-node line with a transport section on
// the given loopback addresses.
func distributedLine(addrs []string) string {
	return `{
  "name": "peer-scoped",
  "duration_s": 0.2,
  "nodes": [
    {"name": "in"}, {"name": "core"}, {"name": "out"}
  ],
  "links": [
    {"a": "in", "b": "core", "rate_mbps": 10, "delay_ms": 0.1},
    {"a": "core", "b": "out", "rate_mbps": 10, "delay_ms": 0.1}
  ],
  "lsps": [
    {"id": "l", "dst": "10.0.0.9", "path": ["in", "core", "out"]}
  ],
  "transport": {"kind": "udp", "nodes": {"in": "` + addrs[0] + `", "core": "` + addrs[1] + `", "out": "` + addrs[2] + `"}}
}`
}

func loopbackAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = c.LocalAddr().String()
		c.Close()
	}
	return addrs
}

// TestBuildNodePeerScoped is the regression test for the distributed
// build contract: a node comes up knowing only its local links and its
// signaling peers — exactly one router is instantiated, no ghost
// replicas of the rest of the topology and no precomputed label state.
func TestBuildNodePeerScoped(t *testing.T) {
	s, err := Load(strings.NewReader(distributedLine(loopbackAddrs(t, 3))))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.BuildNode("core")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Net.Close()

	if len(b.Net.Routers) != 1 {
		t.Errorf("BuildNode instantiated %d routers, want only the local one", len(b.Net.Routers))
	}
	if b.Net.Router("core") == nil {
		t.Fatal("local router missing")
	}
	if b.Speaker == nil || b.Speaker.Name() != "core" {
		t.Fatalf("speaker = %v, want one named core", b.Speaker)
	}
	peers := b.Speaker.Peers()
	if len(peers) != 2 {
		t.Errorf("speaker peers = %v, want the two physical neighbours", peers)
	}
	for _, p := range peers {
		if sess, ok := b.Speaker.Session(p); !ok || sess.Up() {
			t.Errorf("session to %s: ok=%v up=%v, want registered but not yet up", p, ok, sess.Up())
		}
	}
	// No label state exists before signaling converges: core is a
	// transit of the only LSP, so nothing may be preinstalled.
	if got := b.Events.Get(telemetry.EventLabelMapRx); got != 0 {
		t.Errorf("label_map_rx = %d before any peer exists", got)
	}
}

// TestLoadRejectsBadGuardSections covers the admission-guard knobs:
// range checks on the defaults and topology checks on the per-link
// overrides.
func TestLoadRejectsBadGuardSections(t *testing.T) {
	base := `{
  "nodes": [{"name":"a"},{"name":"b"},{"name":"c"}],
  "links": [
    {"a":"a","b":"b","rate_mbps":1,"delay_ms":1},
    {"a":"b","b":"c","rate_mbps":1,"delay_ms":1}
  ],
  "guard": `
	cases := map[string]string{
		"ttl out of range":   `{"ttl_min": 300}`,
		"negative rate":      `{"rate_pps": -1}`,
		"negative burst":     `{"burst": -4}`,
		"negative window":    `{"quarantine_window_s": -0.5}`,
		"unknown guard node": `{"links": [{"node":"a","peer":"ghost"}]}`,
		"no such link":       `{"links": [{"node":"a","peer":"c"}]}`,
		"bad link ttl":       `{"links": [{"node":"a","peer":"b","ttl_min":-1}]}`,
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(base + g + "}")); !errors.Is(err, ErrValidation) {
				t.Errorf("guard %s: err = %v, want ErrValidation", g, err)
			}
		})
	}
	// The same section with the knobs in range loads cleanly.
	ok := `{"spoof_filter": true, "ttl_min": 2, "rate_pps": 100,
	        "links": [{"node":"a","peer":"b","spoof_filter":false}]}`
	if _, err := Load(strings.NewReader(base + ok + "}")); err != nil {
		t.Fatalf("valid guard section rejected: %v", err)
	}
}

// TestBuildNodeGuardWired proves the scenario's guard section arms a
// real admission guard on a distributed node: spoofed labels bounce,
// the drop is accounted, and builds without a section stay guardless.
func TestBuildNodeGuardWired(t *testing.T) {
	s, err := Load(strings.NewReader(distributedLine(loopbackAddrs(t, 3))))
	if err != nil {
		t.Fatal(err)
	}
	s.Guard = &GuardSection{
		SpoofFilter: true,
		TTLMin:      2,
		Links:       []GuardLink{{Node: "core", Peer: "in", TTLMin: 8}},
	}
	if err := s.validate(); err != nil {
		t.Fatal(err)
	}
	b, err := s.BuildNode("core")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Net.Close()
	if b.Guard == nil {
		t.Fatal("guard section did not arm a guard")
	}
	// Nothing was advertised to "out" yet, so a labelled arrival from it
	// is a spoof; the drop lands in the guard's counters.
	p := packet.New(packet.AddrFrom(10, 0, 0, 9), packet.AddrFrom(10, 0, 0, 1), 64, nil)
	if err := p.Stack.Push(label.Entry{Label: 5000, Bottom: true, TTL: 64}); err != nil {
		t.Fatal(err)
	}
	if b.Guard.Admit(p, "out") {
		t.Error("unadvertised label admitted from a neighbour")
	}
	if got := b.Guard.Drops().Get(telemetry.ReasonLabelSpoof); got != 1 {
		t.Errorf("label-spoof drops = %d, want 1", got)
	}
	// The per-link override tightened TTL on the in-facing side only.
	p2 := packet.New(packet.AddrFrom(10, 0, 0, 9), packet.AddrFrom(10, 0, 0, 1), 64, nil)
	if err := p2.Stack.Push(label.Entry{Label: 5001, Bottom: true, TTL: 4}); err != nil {
		t.Fatal(err)
	}
	if b.Guard.Admit(p2, "in") {
		t.Error("TTL 4 admitted from in, per-link override demands >= 8")
	}
	if got := b.Guard.Drops().Get(telemetry.ReasonTTLSecurity); got != 1 {
		t.Errorf("ttl-security drops = %d, want 1", got)
	}

	// No guard section, no guard.
	s2, err := Load(strings.NewReader(distributedLine(loopbackAddrs(t, 3))))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s2.BuildNode("core")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Net.Close()
	if b2.Guard != nil {
		t.Error("guardless scenario built a guard")
	}
}

// TestBuildNodeRejectsTunnels: tunnels are signalled in process only.
func TestBuildNodeRejectsTunnels(t *testing.T) {
	s, err := Load(strings.NewReader(distributedLine(loopbackAddrs(t, 3))))
	if err != nil {
		t.Fatal(err)
	}
	s.Tunnels = []Tunnel{{ID: "t", Path: []string{"in", "core", "out"}}}
	if _, err := s.BuildNode("core"); !errors.Is(err, ErrValidation) {
		t.Fatalf("BuildNode with tunnels: %v, want ErrValidation", err)
	}
}
