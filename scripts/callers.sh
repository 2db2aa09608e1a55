#!/usr/bin/env bash
# Lists every `pub fn` under crates/*/src whose name appears nowhere else
# in non-test code: not in crates/ (library sources, binaries, benches),
# examples/, benchmark/src or the root src/. Test code is not a caller:
# every `tests/` directory, and each file from the `#[cfg(test)]` that
# opens its test module down (the cut `scripts/loc.sh` makes). Comments
# are not callers either, and a definition is not a use of itself.
#
# Names are matched as bare words, so a function that shares its name
# with anything still in use is not listed: each printed line is a
# candidate for deletion, not a proof, and the list under-reports.
#
# A function kept on purpose goes in KEEP below as `path name  reason`.
# Kept entries are not printed. The script exits 1 when anything is left
# unexplained, or when a KEEP entry no longer names a candidate (it got
# a caller or was deleted, so its line should go).
#
#   scripts/callers.sh              # one `path:line name` per candidate
#   scripts/callers.sh --markdown   # the same list as GitHub markdown
set -euo pipefail

KEEP='
crates/common/src/peers.rs to_flag  the inverse of parse_flag; tests/tcp_cluster.rs passes the map to child rdb-node processes with it
crates/common/src/transaction.rs conflicts_with  the pairwise conflict rule the scheduler tests check every wave against
crates/core/src/fabric.rs head_results  the only read of head-block results; the rejoin tests compare them across replicas
crates/crypto/src/ed25519.rs multiscalar_mul_vartime  the general Straus MSM; verification calls its table-taking core, the MSM tests call this
crates/crypto/src/rsa.rs signature_len  the RSA half of the signature-size contract pinned by signature_len_matches_actual
crates/crypto/src/scheme.rs signature_len  the signature-size contract per scheme and peer class, pinned by signature_len_matches_actual
crates/net/src/stats.rs total_delivered  the receive-side total beside total_sent; the transport tests wait on it
crates/net/src/tcp.rs open_connections  the live-socket gauge the reclamation and churn tests poll
crates/pipeline/src/durable.rs wal_appends  the append counter beside wal_fsyncs; the checkpoint test pins one append per batch
crates/pipeline/src/metrics.rs add_busy_ns  charges busy time without a timing guard; the saturation tests build reports with it
crates/storage/src/blockchain.rs retained  the retained-block count the pruning tests check
crates/storage/src/blockchain.rs block_at  block lookup by sequence, the pruning and executor tests read blocks with it
crates/storage/src/blockchain.rs head_digest  digest of the chain head; the rollback and convergence tests compare chains with it
crates/storage/src/merkle.rs verify_proof  the Merkle-proof verifier that state-transfer verification (ROADMAP item 4) will call
'

cd "$(dirname "$0")/.."

markdown=0
if [ "${1:-}" = "--markdown" ]; then
  markdown=1
fi

files=$(find crates examples benchmark/src src -name '*.rs' \
  -not -path '*/target/*' -not -path '*/tests/*' | sort)

# shellcheck disable=SC2086
CALLERS_KEEP="$KEEP" awk -v markdown="$markdown" '
  BEGIN {
    lines = split(ENVIRON["CALLERS_KEEP"], kept, "\n")
    for (i = 1; i <= lines; i++) {
      if (split(kept[i], f, " ") >= 2) keep[f[1] " " f[2]] = 1
    }
  }
  FNR == 1 {
    cut = 0
    held = 0
    lib = (FILENAME ~ /^crates\/[^\/]+\/src\//)
  }
  cut { next }
  # After a `#[cfg(test)]`, further attributes stay held; a module cuts
  # the rest of the file, any other item is read as usual.
  held {
    if ($0 ~ /^[[:space:]]*#\[/) next
    held = 0
    if ($0 ~ /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/) { cut = 1; next }
  }
  /^[[:space:]]*#\[cfg\(test\)\]/ {
    if ($0 ~ /\][[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/) { cut = 1; next }
    held = 1
    next
  }
  /^[[:space:]]*\/\// { next }
  {
    line = $0
    sub(/[[:space:]]\/\/.*/, "", line)
    if (lib && match(line, /^[[:space:]]*pub[[:space:]]+(const[[:space:]]+)?fn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/)) {
      name = substr(line, RSTART, RLENGTH)
      sub(/.*fn[[:space:]]+/, "", name)
      defs[++n] = name
      where[n] = FILENAME ":" FNR
    }
    gsub(/(^|[^A-Za-z0-9_])fn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/, " ", line)
    while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
      uses[substr(line, RSTART, RLENGTH)]++
      line = substr(line, RSTART + RLENGTH)
    }
  }
  END {
    if (markdown) {
      print "| definition | pub fn |"
      print "|---|---|"
    }
    found = 0
    held_back = 0
    for (i = 1; i <= n; i++) {
      if (uses[defs[i]] > 0) continue
      id = where[i]
      sub(/:[0-9]+$/, "", id)
      id = id " " defs[i]
      if (id in keep) { held_back++; listed[id] = 1; continue }
      found++
      if (markdown) printf "| %s | `%s` |\n", where[i], defs[i]
      else printf "%s %s\n", where[i], defs[i]
    }
    stale = 0
    for (id in keep) {
      if (id in listed) continue
      stale++
      printf "stale KEEP entry (no longer a candidate): %s\n", id
    }
    if (markdown) printf "\n%d `pub fn` with no caller outside tests and no reason in KEEP (%d kept).\n", found, held_back
    else printf "%d pub fn with no caller outside tests and no reason in KEEP (%d kept)\n", found, held_back
    exit (found > 0 || stale > 0) ? 1 : 0
  }
' $files
