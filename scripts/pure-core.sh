#!/usr/bin/env bash
# Fails if the replica's decision logic reaches for shared state, threads
# or clocks. The non-test part of crates/pipeline/src/core.rs may name
# none of `dyn`, `Mutex`, `RwLock`, `Condvar`, `Atomic*`, `thread::`,
# `channel::`, `Instant::now` or `SystemTime`; node.rs and queues.rs none
# of them but `dyn` (a node holds its stage's back end as a trait object).
# Each file is cut at its test module as scripts/loc.sh cuts it; a hit is
# printed with its line number.
#
#   scripts/pure-core.sh
set -euo pipefail

cd "$(dirname "$0")/.."

banned='Mutex|RwLock|Condvar|Atomic|thread::|channel::|Instant::now|SystemTime'
status=0
check() {
  if bash scripts/loc.sh --source "$1" | grep -nE "$2"; then
    echo "$1 names one of: $2" >&2
    status=1
  fi
}
check crates/pipeline/src/core.rs "\bdyn\b|$banned"
check crates/pipeline/src/node.rs "$banned"
check crates/pipeline/src/queues.rs "$banned"
exit "$status"
