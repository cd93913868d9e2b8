#!/bin/sh
# Build the benchmark from source and run one workload, from the root of
# a checkout:
#   benchmark/run.sh --workload NAME --seed N --seconds N --trace 0|1
# The shared dune cache is off so that the build writes only under _build.
DUNE_CACHE=disabled exec dune exec --root . --display quiet benchmark/main.exe -- "$@"
