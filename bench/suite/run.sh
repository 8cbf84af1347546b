#!/bin/bash
# Builds and runs aldsp_bench from the root of a checkout, pinned to one
# CPU. The process's OCaml threads share one runtime lock, so it runs on
# one core at a time anyway; pinning keeps every hand-off of that lock,
# and every wake-up after a simulated-latency sleep, on the same CPU.
# Unpinned, those cross-CPU wake-ups cost a varying amount with the load
# on the host, and streamed delivery swung from run to run by a third.
#
#   bash bench/suite/run.sh --workload W --seed N --seconds T --trace 0|1
set -eu
run=(dune exec --root . --display quiet bench/suite/aldsp_bench.exe -- "$@")
# the first CPU this process may use: "0" from "...: 0-1" or "...: 2,5"
if cpus=$(taskset -pc $$ 2>/dev/null); then
  cpu=${cpus##*: }
  exec taskset -c "${cpu%%[-,]*}" "${run[@]}"
fi
exec "${run[@]}"
