#!/bin/sh
# Full pre-merge gate. `make check` is its one definition; this script only
# runs it from the repo root.
set -eu
cd "$(dirname "$0")/.."
exec make check
