# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test mgmt bench reproduce reproduce-check sim-check sim-golden race flake cover chaos soak examples clean

all: build test

build:
	go build ./...

# The fuzz smokes keep the wire decoders honest on every run: ten
# seconds of random datagrams must never panic the packet codec or the
# coalesced-frame walker, and the signaling codec, the label stack
# decoder and the packet decoder must strictly round-trip whatever they
# accept. The management-plane smoke rides along: golden wire fixtures,
# error envelopes, and the three-process mplsctl acceptance run. So does the paper's evaluation: results/ must
# regenerate byte for byte. Every tracked Go file must be gofmt-clean.
test: mgmt reproduce-check sim-check
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	go vet ./...
	go test ./...
	go test -run=^$$ -fuzz=FuzzWireDecode -fuzztime=10s ./internal/transport
	go test -run=^$$ -fuzz=FuzzWireRoundTrip -fuzztime=10s ./internal/transport
	go test -run=^$$ -fuzz=FuzzFrameDecode -fuzztime=10s ./internal/transport
	go test -run=^$$ -fuzz=FuzzFrameRoundTrip -fuzztime=10s ./internal/transport
	go test -run=^$$ -fuzz=FuzzSignalingDecode -fuzztime=10s ./internal/signaling
	go test -run=^$$ -fuzz=FuzzDecodeWire -fuzztime=10s ./internal/label
	go test -run=^$$ -fuzz=FuzzUnmarshal -fuzztime=10s ./internal/packet

# The management-plane smoke: the JSON-RPC wire against its golden
# fixtures, every RPC against a live node, and mplsctl driving three
# real mplsnode processes end to end (runtime provisioning, infobase
# dump, scrape, reload-without-restart, graceful drain).
mgmt:
	go test ./internal/mgmt
	go test -run 'ManagementPlane' ./internal/integration

bench:
	go test -bench=. -benchmem ./...

reproduce:
	go run ./cmd/reproduce -out results

# The contract on the RTL simulator: whatever is done to make it faster,
# every simulated figure stays what it was. Regenerate the paper's
# evaluation (Table 6, Figs. 14-16 as text and VCD, REPORT.md) into a
# scratch directory and require it byte-equal to the committed results/.
reproduce-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	go run ./cmd/reproduce -out "$$tmp" >/dev/null && diff -r "$$tmp" results && \
	echo "reproduce-check: results/ regenerated byte for byte"

# The contract on the simulator's printed output: every deterministic
# mplssim run (the built-in scenarios on both planes, the chaos seeds
# with and without -heal, the scenario files) and every deterministic
# example must print what testdata/sim holds. A change that moves a
# figure on purpose regenerates the goldens with sim-golden, and its
# diff on testdata/sim is the list of lines to explain.
sim-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	bash scripts/simgolden.sh "$$tmp" && diff -r "$$tmp" testdata/sim && \
	echo "sim-check: testdata/sim regenerated byte for byte"

sim-golden:
	bash scripts/simgolden.sh testdata/sim

# The concurrent dataplane is the package the race detector exists for:
# run it explicitly (and with -count=2 for scheduling variety) on top of
# the repo-wide pass. The fault-injection and resilience packages ride
# along: their chaos scenarios, which drive the signaling speakers
# through the session healer, must stay race-clean too, as must the
# batched flow-cache path and the infobase stores' atomic publication
# (concurrent lookups during writes). The transport package lives on
# socket goroutines end to end, so it gets the same treatment, plus the
# teardown-under-load and distributed-delivery regressions. The
# management plane serves RPCs from socket goroutines into the network
# lock while the dataplane forwards, so it runs under -race with
# scheduling variety too. The RTL simulator and what is built on it are
# single-goroutine by design; they are listed so that stays checked.
# The ingress guard admits on every shard's socket goroutine with no
# shared lock while the speaker advertises and the management plane
# retunes, so it rides the -count=2 list, and the sink that calls it
# (FeedTo) joins the pump regressions, with the run-to-completion ones:
# the receiver's flush on drain, Engine.Process racing Close, and the
# clones retaining wires get.
race:
	go test -race ./...
	go test -race ./internal/rtl ./internal/lsm ./internal/wave ./internal/mmio
	go test -race -count=2 ./internal/dataplane ./internal/faults ./internal/resilience ./internal/signaling ./internal/transport ./internal/mgmt ./internal/guard
	go test -race -count=2 -run 'FlowCache|Concurrent|Telemetry' ./internal/dataplane ./internal/infobase ./internal/swmpls
	go test -race -count=2 -run 'Close|Distributed|Differential|Egress|FeedTo|Drain|Inline|Retain' ./internal/router ./internal/integration ./internal/dataplane ./internal/transport

# Tier-1 has to be deterministic: twenty runs, plain and under the race
# detector, of the packages whose tests cross goroutines and sockets.
# One failure in forty is a bug to find, not a run to repeat. The
# packages run one at a time (-p 1): signaling sessions in the
# integration tests have a 120 ms dead timer in real time, and a
# neighbouring test binary spinning on both cores of a 2-core box is
# load the tests do not claim to survive.
FLAKE_PKGS = ./internal/integration ./internal/router ./internal/dataplane ./internal/guard ./internal/transport
flake:
	go test -p 1 -count=20 -timeout 60m $(FLAKE_PKGS)
	go test -p 1 -race -count=20 -timeout 60m $(FLAKE_PKGS)

# Seeded chaos runs with the self-healing layer on: each seed injects a
# different fault schedule — link flaps, corruption, delay spikes and a
# signaling-session sever — and mplssim exits nonzero if traffic has not
# converged (flowing again, no retries exhausted) by the end of the run.
# The in-simulator runs are followed by the multi-process soak.
chaos: soak
	@for seed in 1 2 3; do \
		echo "== chaos seed $$seed =="; \
		go run ./cmd/mplssim -chaos $$seed -heal || exit 1; echo; done

# The hostile-wire soak: 50 mplsnode-style processes in a ring-of-rings
# over loopback UDP, with seeded kills and spoof/TTL/rate/malformed
# floods from the parent. Each seed must converge — survivors' sessions
# up, LSPs rerouted off the corpses, fresh deliveries at every egress —
# with zero panics and every attack class measurably dropped by the
# ingress admission guards.
soak:
	@go build -o /tmp/mplschaos ./cmd/mplschaos
	@for seed in 1 2 3; do \
		echo "== soak seed $$seed =="; \
		/tmp/mplschaos -seed $$seed -rings 10 -ring-size 5 -duration 8 || exit 1; echo; done

# Per-package coverage plus an aggregate profile with a per-function
# report and a repo-wide total line.
cover:
	go test -coverprofile=coverage.out ./internal/...
	go tool cover -func=coverage.out | tail -1

examples:
	@for ex in quickstart figure1 tunnel voipqos hwsw signaling mmio dataplane distributed; do \
		echo "== $$ex =="; go run ./examples/$$ex; echo; done

# Generated outputs only: results/ is committed and reproduce-check
# diffs against it.
clean:
	rm -rf coverage.out *.test *.prof .bench_build
