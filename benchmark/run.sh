#!/usr/bin/env bash
# Build the benchmark from source, then run it; every argument goes to
# run.exe (see benchmark/README.md).  Run from the repository root.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "benchmark/run.sh: no dune-project and lib/ here; run it from the repository root" >&2
  exit 2
fi

# keep every build product inside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/run.exe 1>&2
exec ./_build/default/benchmark/run.exe "$@"
