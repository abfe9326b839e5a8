#!/usr/bin/env bash
# Writes the printed output of every deterministic simulator run into
# the directory given as the only argument, one file per run:
#
#   mplssim -scenario line|tunnel|qos|failover   with -plane hw and sw
#   mplssim -chaos 1|2|3                         with and without -heal
#   mplssim -config scenarios/tunnel.json|voipqos.json
#   go run ./examples/quickstart|figure1|tunnel|voipqos|signaling|mmio
#
# `make sim-check` diffs a fresh run against testdata/sim; `make
# sim-golden` rewrites testdata/sim. Host-timed runs (hwsw, dataplane,
# distributed) are left out: their output differs from run to run.
set -euo pipefail

out=${1:?usage: simgolden.sh OUTDIR}
mkdir -p "$out"
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT

go build -o "$bin/mplssim" ./cmd/mplssim
for ex in quickstart figure1 tunnel voipqos signaling mmio; do
	go build -o "$bin/$ex" "./examples/$ex"
done

# run NAME CMD...: the command's stdout and stderr, then its exit status.
run() {
	local name=$1
	shift
	local status=0
	"$@" >"$out/$name.txt" 2>&1 || status=$?
	echo "exit status $status" >>"$out/$name.txt"
}

for sc in line tunnel qos failover; do
	for plane in hw sw; do
		run "mplssim-$sc-$plane" "$bin/mplssim" -scenario "$sc" -plane "$plane"
	done
done
for seed in 1 2 3; do
	run "mplssim-chaos-$seed" "$bin/mplssim" -chaos "$seed"
	run "mplssim-chaos-$seed-heal" "$bin/mplssim" -chaos "$seed" -heal
done
for cfg in tunnel voipqos; do
	run "mplssim-config-$cfg" "$bin/mplssim" -config "scenarios/$cfg.json"
done
for ex in quickstart figure1 tunnel voipqos signaling mmio; do
	run "example-$ex" "$bin/$ex"
done
