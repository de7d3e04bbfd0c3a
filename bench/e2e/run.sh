#!/usr/bin/env bash
# Build the end-to-end benchmark from source, then run it. From the root
# of a checkout:
#
#   bash bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The last line of output is the result JSON (see README.md here).
set -euo pipefail
export DUNE_CACHE=disabled
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . --display quiet ./bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe run "$@"
