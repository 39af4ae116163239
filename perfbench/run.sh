#!/bin/sh
# Build the design service and the benchmark from source, then run the
# benchmark with the given arguments (see perfbench/NOTES.md).  Run from
# the repository root.
set -e
if [ ! -f dune-project ] || [ ! -f bin/swsd.ml ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a checkout of the repository" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
# the build writes only under _build: no shared dune cache
DUNE_CACHE=disabled dune build --root . --display quiet ./bin/swsd.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
