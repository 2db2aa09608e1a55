#!/usr/bin/env bash
# Fault-matrix smoke: the failure-scenario harness under CI time budgets.
#
# Phase A runs a pinned subset of the scenario matrix (primary crash and
# partition+heal, PBFT and Zyzzyva, over the TCP reactor) through the
# `faults` binary, which exits non-zero if any run misses liveness or
# digest agreement, and writes the subset to $LOG_DIR/faults.json (the
# committed BENCH_faults.json holds the full matrix: `faults` with no
# --scenario writes it).
#
# Phase B exercises *real* process failure: a 4-replica rdb-node cluster
# over loopback TCP with checkpointing enabled, SIGKILL of the view-0
# primary mid-stream, a view change driven by the survivors, a process
# restart, and a second client burst against the post-change view.
# Asserts both bursts complete, the never-killed replicas end with
# identical state digests, and the restarted process rejoins through
# snapshot transfer: its digest converges to the survivors' FINAL digest
# while its executed count stays below the cluster total — the survivors
# pruned their logs at checkpoints, so a genesis replay is impossible and
# the convergence proves a verified snapshot was installed.
#
# Phase C drives the same cluster shape through `rdb-node --fault-plan`:
# every process loads one schedule that crashes a backup's transport at a
# committed mark and recovers it later, exercising the plan parser and
# the crash/recover socket-teardown path end to end. Checkpointing stays
# off here, so the recovered backup closes its execution hole through the
# fetch-missing protocol alone and must converge to the survivors' digest.
#
# Phase D exercises the durable-recovery path: the same cluster shape
# with --data-dir set, SIGKILL of a backup after the first burst, and a
# restart pointed at the same directory. The restarted process must print
# a RECOVER line proving it rebuilt from *local* disk — a persisted
# snapshot plus only the WAL suffix past it, not a genesis replay and not
# a network transfer — and then converge to the survivors' FINAL digest
# through the second burst. A replica persists a snapshot at its first
# stable checkpoint and then only once the WAL has grown as large as the
# last one, so the suffix can span several checkpoints: the check is
# that it replays fewer transactions than the burst, not none.
#
# Usage: scripts/fault-matrix-smoke.sh [path-to-rdb-node-dir] [log-dir]
#   arg1: directory containing the rdb-node and faults binaries
#         (default: target/release, built if missing)
set -euo pipefail

cd "$(dirname "$0")/.."

BIN_DIR="${1:-target/release}"
LOG_DIR="${2:-target/fault-matrix-smoke}"
BASE_PORT="${RDB_FAULT_SMOKE_BASE_PORT:-17800}"
T1="${RDB_FAULT_SMOKE_T1:-300}"   # burst before the primary kill
T2="${RDB_FAULT_SMOKE_T2:-200}"   # burst after the restart
BATCH="${RDB_FAULT_SMOKE_BATCH:-10}"
WAIT="${RDB_FAULT_SMOKE_WAIT_SECS:-90}"

if [ ! -x "$BIN_DIR/rdb-node" ] || [ ! -x "$BIN_DIR/faults" ]; then
  echo "building rdb-node + faults (release)…"
  cargo build --release --bin rdb-node --bin faults
  BIN_DIR=target/release
fi

mkdir -p "$LOG_DIR"
rm -f "$LOG_DIR"/*.log "$LOG_DIR"/*.plan

echo "=== phase A: pinned scenario matrix over TCP ==="
"$BIN_DIR/faults" --scenario primary_crash,partition_heal \
  --protocol both --transport tcp --out "$LOG_DIR/faults.json" \
  | tee "$LOG_DIR/matrix.log"

TOTAL=$((T1 + T2))
CKPT="${RDB_FAULT_SMOKE_CKPT_TXNS:-100}"

# Phase B cluster config: peer map plus a [node] section enabling
# checkpoints every CKPT transactions, so the survivors prune their logs
# and capture serving snapshots — the restarted replica 0 must rejoin via
# snapshot transfer, not genesis replay. Every process (replicas and
# clients) loads the same file.
CONF="$LOG_DIR/cluster.toml"
{
  echo "[peers]"
  for i in 0 1 2 3; do
    echo "$i = \"127.0.0.1:$((BASE_PORT + i))\""
  done
  echo "[node]"
  echo "batch_size = $BATCH"
  echo "checkpoint_interval = $CKPT"
} >"$CONF"

pids=()
cleanup() {
  for pid in "${pids[@]}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
}
trap cleanup EXIT

echo "=== phase B: SIGKILL the primary, view change, restart, second burst ==="
# Survivors exit on their own at TOTAL executed; replica 0 will be killed
# and restarted, so it gets no exit bound. Survivors linger well past
# their FINAL line so the restarted replica can still fetch snapshots
# and missing batches from them while we poll it for convergence.
LINGER_MS=$((WAIT * 1000))
"$BIN_DIR/rdb-node" --replica 0 --peers "$CONF" \
  >"$LOG_DIR/replica-0.log" 2>&1 &
r0_pid=$!
pids+=($r0_pid)
for i in 1 2 3; do
  "$BIN_DIR/rdb-node" --replica "$i" --peers "$CONF" \
    --exit-after-txns "$TOTAL" --run-secs "$WAIT" --linger-ms "$LINGER_MS" \
    >"$LOG_DIR/replica-$i.log" 2>&1 &
  pids+=($!)
done
sleep 1

"$BIN_DIR/rdb-node" --client --client-id 0 --peers "$CONF" \
  --txns "$T1" --wait-secs "$WAIT" \
  >"$LOG_DIR/client-0.log" 2>&1 &
client_pid=$!
pids+=($client_pid)

# Kill the view-0 primary while the burst is in flight.
sleep 0.4
kill -9 "$r0_pid" 2>/dev/null || true
# Reap it before anything restarts on its port: a SIGKILLed process can
# still hold its listening socket for a moment after `kill` returns.
wait "$r0_pid" 2>/dev/null || true
echo "killed replica 0 (pid $r0_pid)"

if ! wait "$client_pid"; then
  echo "::error::client burst 1 failed after primary kill" >&2
  cat "$LOG_DIR/client-0.log" >&2
  exit 1
fi
grep CLIENT "$LOG_DIR/client-0.log" || true

# Restart replica 0: the transport's redial path brings it back into the
# cluster. It starts from genesis in a fresh process, but the survivors
# have pruned their logs at checkpoints, so the only way back to the
# cluster digest is a verified snapshot plus the unpruned tail — asserted
# below once the survivors print FINAL.
"$BIN_DIR/rdb-node" --replica 0 --peers "$CONF" \
  >"$LOG_DIR/replica-0-restarted.log" 2>&1 &
pids+=($!)
sleep 1

if ! "$BIN_DIR/rdb-node" --client --client-id 1 --peers "$CONF" \
  --txns "$T2" --wait-secs "$WAIT" \
  >"$LOG_DIR/client-1.log" 2>&1; then
  echo "::error::client burst 2 failed after restart" >&2
  cat "$LOG_DIR/client-1.log" >&2
  exit 1
fi
grep CLIENT "$LOG_DIR/client-1.log" || true

digests=()
for i in 1 2 3; do
  # The replica processes were started with `--exit-after-txns TOTAL`.
  for _ in $(seq 1 "$WAIT"); do
    grep -q '^FINAL ' "$LOG_DIR/replica-$i.log" && break
    sleep 1
  done
  final=$(grep '^FINAL ' "$LOG_DIR/replica-$i.log" | tail -n1)
  if [ -z "$final" ]; then
    echo "::error::survivor $i printed no FINAL line" >&2
    cat "$LOG_DIR/replica-$i.log" >&2
    exit 1
  fi
  echo "$final"
  if ! grep -q "executed=$TOTAL" <<<"$final"; then
    echo "::error::survivor $i stopped short of $TOTAL txns: $final" >&2
    exit 1
  fi
  digests+=("$(sed -n 's/.*digest=\([0-9a-f]*\).*/\1/p' <<<"$final")")
done
for d in "${digests[@]:1}"; do
  if [ "$d" != "${digests[0]}" ]; then
    echo "::error::survivor digests diverged: ${digests[*]}" >&2
    exit 1
  fi
done

# The restarted replica 0 must converge to the survivors' digest via
# snapshot transfer. Poll its STATE lines: once its digest matches, its
# executed count is the number of transactions it actually re-executed —
# strictly less than TOTAL proves the transferred prefix was installed,
# not replayed from genesis (the survivors' pruned logs could not have
# served it anyway).
rejoin=""
for _ in $(seq 1 "$WAIT"); do
  rejoin=$(grep '^STATE ' "$LOG_DIR/replica-0-restarted.log" | tail -n1 || true)
  if grep -q "digest=${digests[0]}" <<<"$rejoin"; then
    break
  fi
  rejoin=""
  sleep 1
done
if [ -z "$rejoin" ]; then
  echo "::error::restarted replica 0 never converged to digest ${digests[0]}" >&2
  tail -n 20 "$LOG_DIR/replica-0-restarted.log" >&2
  exit 1
fi
echo "$rejoin"
r0_executed=$(sed -n 's/.*executed=\([0-9]*\).*/\1/p' <<<"$rejoin")
if [ -z "$r0_executed" ] || [ "$r0_executed" -ge "$TOTAL" ]; then
  echo "::error::restarted replica 0 executed $r0_executed/$TOTAL txns — it replayed history instead of installing a snapshot" >&2
  exit 1
fi
cleanup
pids=()
echo "phase B OK: view change survived a real primary kill, digest ${digests[0]}"
echo "phase B OK: replica 0 rejoined via snapshot transfer (re-executed $r0_executed of $TOTAL txns)"

echo "=== phase C: --fault-plan schedule (backup crash + recover) ==="
PLAN="$LOG_DIR/backup-crash.plan"
cat >"$PLAN" <<'EOF'
# Crash backup 1's transport once this node has executed 100 txns,
# bring it back 3 seconds in. Identical file on every process.
seed 42
at committed 100 crash 1
at elapsed_ms 3000 recover 1
EOF

PEERS_C="0=127.0.0.1:$((BASE_PORT + 10)),1=127.0.0.1:$((BASE_PORT + 11)),2=127.0.0.1:$((BASE_PORT + 12)),3=127.0.0.1:$((BASE_PORT + 13))"
TC=300
for i in 0 1 2 3; do
  extra=()
  # Replica 1 is crashed mid-run and closes its execution hole through
  # the fetch-missing protocol once it recovers (checkpointing is off in
  # this phase, so the survivors' full logs serve every missing batch):
  # it gets no exit bound — we poll it for convergence and kill it at
  # the end.
  if [ "$i" != 1 ]; then
    extra=(--exit-after-txns "$TC" --run-secs "$WAIT" --linger-ms $((WAIT * 1000)))
  fi
  "$BIN_DIR/rdb-node" --replica "$i" --peers "$PEERS_C" --batch-size "$BATCH" \
    --fault-plan "$PLAN" "${extra[@]}" \
    >"$LOG_DIR/plan-replica-$i.log" 2>&1 &
  pids+=($!)
done
sleep 1

if ! "$BIN_DIR/rdb-node" --client --client-id 0 --peers "$PEERS_C" \
  --batch-size "$BATCH" --txns "$TC" --wait-secs "$WAIT" \
  >"$LOG_DIR/plan-client.log" 2>&1; then
  echo "::error::client failed under the fault plan" >&2
  cat "$LOG_DIR/plan-client.log" >&2
  exit 1
fi
grep CLIENT "$LOG_DIR/plan-client.log" || true
if ! grep -q '^FAULT ' "$LOG_DIR/plan-replica-0.log"; then
  echo "::error::fault plan never fired on replica 0" >&2
  cat "$LOG_DIR/plan-replica-0.log" >&2
  exit 1
fi
grep '^FAULT ' "$LOG_DIR/plan-replica-0.log"

digests=()
for i in 0 2 3; do
  for _ in $(seq 1 "$WAIT"); do
    grep -q '^FINAL ' "$LOG_DIR/plan-replica-$i.log" && break
    sleep 1
  done
  final=$(grep '^FINAL ' "$LOG_DIR/plan-replica-$i.log" | tail -n1)
  if [ -z "$final" ] || ! grep -q "executed=$TC" <<<"$final"; then
    echo "::error::replica $i did not reach $TC txns under the plan" >&2
    cat "$LOG_DIR/plan-replica-$i.log" >&2
    exit 1
  fi
  echo "$final"
  digests+=("$(sed -n 's/.*digest=\([0-9a-f]*\).*/\1/p' <<<"$final")")
done
for d in "${digests[@]:1}"; do
  if [ "$d" != "${digests[0]}" ]; then
    echo "::error::plan-run digests diverged: ${digests[*]}" >&2
    exit 1
  fi
done

# The recovered backup must fetch the batches it missed while crashed and
# converge to the survivors' digest — with its executed count at exactly
# TC (every hole filled once, nothing double-executed).
rejoin=""
for _ in $(seq 1 "$WAIT"); do
  rejoin=$(grep '^STATE ' "$LOG_DIR/plan-replica-1.log" | tail -n1 || true)
  if grep -q "digest=${digests[0]}" <<<"$rejoin" && grep -q "executed=$TC" <<<"$rejoin"; then
    break
  fi
  rejoin=""
  sleep 1
done
if [ -z "$rejoin" ]; then
  echo "::error::recovered replica 1 never fetched its way back to digest ${digests[0]} at $TC txns" >&2
  tail -n 20 "$LOG_DIR/plan-replica-1.log" >&2
  exit 1
fi
echo "$rejoin"
echo "phase C OK: fault plan fired, survivors agree, recovered backup fetched back to digest ${digests[0]}"
cleanup
pids=()

echo "=== phase D: SIGKILL a backup, restart with --data-dir, recover from local disk ==="
DATA_DIR="$LOG_DIR/phase-d-data"
rm -rf "$DATA_DIR"
CONF_D="$LOG_DIR/cluster-durable.toml"
{
  echo "[peers]"
  for i in 0 1 2 3; do
    echo "$i = \"127.0.0.1:$((BASE_PORT + 20 + i))\""
  done
  echo "[node]"
  echo "batch_size = $BATCH"
  echo "checkpoint_interval = $CKPT"
  echo "data_dir = \"$DATA_DIR\""
  echo "fsync = \"group\""
} >"$CONF_D"

# Replicas 0-2 survive throughout (n=4, f=1: exactly a quorum) and exit
# at the cluster total; backup replica 3 is the kill/restart target, so
# it gets no exit bound.
for i in 0 1 2; do
  "$BIN_DIR/rdb-node" --replica "$i" --peers "$CONF_D" \
    --exit-after-txns "$TOTAL" --run-secs "$WAIT" --linger-ms "$LINGER_MS" \
    >"$LOG_DIR/durable-replica-$i.log" 2>&1 &
  pids+=($!)
done
"$BIN_DIR/rdb-node" --replica 3 --peers "$CONF_D" \
  >"$LOG_DIR/durable-replica-3.log" 2>&1 &
r3_pid=$!
pids+=($r3_pid)
sleep 1

if ! "$BIN_DIR/rdb-node" --client --client-id 0 --peers "$CONF_D" \
  --txns "$T1" --wait-secs "$WAIT" \
  >"$LOG_DIR/durable-client-0.log" 2>&1; then
  echo "::error::client burst 1 failed in the durable cluster" >&2
  cat "$LOG_DIR/durable-client-0.log" >&2
  exit 1
fi
grep CLIENT "$LOG_DIR/durable-client-0.log" || true

# Wait until replica 3 has executed the whole first burst, then give the
# checkpoint protocol and the group-commit flusher a moment to land the
# snapshot of the first stable checkpoint (later ones log a marker until
# the WAL outgrows it) and the WAL tail on disk before pulling the plug.
r3_caught_up=""
for _ in $(seq 1 "$WAIT"); do
  state=$(grep '^STATE ' "$LOG_DIR/durable-replica-3.log" | tail -n1 || true)
  executed=$(sed -n 's/.*executed=\([0-9]*\).*/\1/p' <<<"$state")
  if [ -n "$executed" ] && [ "$executed" -ge "$T1" ]; then
    r3_caught_up=yes
    break
  fi
  sleep 1
done
if [ -z "$r3_caught_up" ]; then
  echo "::error::replica 3 never executed the first burst" >&2
  tail -n 20 "$LOG_DIR/durable-replica-3.log" >&2
  exit 1
fi
sleep 2
kill -9 "$r3_pid" 2>/dev/null || true
# Reaped before the restart binds the same port (see phase B).
wait "$r3_pid" 2>/dev/null || true
echo "killed replica 3 (pid $r3_pid)"

# Restart against the same directory: recovery must come from local disk.
"$BIN_DIR/rdb-node" --replica 3 --peers "$CONF_D" \
  >"$LOG_DIR/durable-replica-3-restarted.log" 2>&1 &
pids+=($!)
recover=""
for _ in $(seq 1 "$WAIT"); do
  recover=$(grep '^RECOVER ' "$LOG_DIR/durable-replica-3-restarted.log" | tail -n1 || true)
  [ -n "$recover" ] && break
  sleep 1
done
if [ -z "$recover" ]; then
  echo "::error::restarted replica 3 printed no RECOVER line" >&2
  tail -n 20 "$LOG_DIR/durable-replica-3-restarted.log" >&2
  exit 1
fi
echo "$recover"
if ! grep -q 'source=local' <<<"$recover"; then
  echo "::error::restart did not recover from local disk: $recover" >&2
  exit 1
fi
snap_seq=$(sed -n 's/.*snapshot_seq=\([0-9]*\).*/\1/p' <<<"$recover")
replayed=$(sed -n 's/.*replayed_txns=\([0-9]*\).*/\1/p' <<<"$recover")
if [ -z "$snap_seq" ] || [ "$snap_seq" -eq 0 ]; then
  echo "::error::no persisted snapshot was used (snapshot_seq=$snap_seq): $recover" >&2
  exit 1
fi
if [ -z "$replayed" ] || [ "$replayed" -ge "$T1" ]; then
  echo "::error::restart replayed $replayed/$T1 txns — the whole history instead of the WAL suffix past the snapshot" >&2
  exit 1
fi

if ! "$BIN_DIR/rdb-node" --client --client-id 1 --peers "$CONF_D" \
  --txns "$T2" --wait-secs "$WAIT" \
  >"$LOG_DIR/durable-client-1.log" 2>&1; then
  echo "::error::client burst 2 failed after the durable restart" >&2
  cat "$LOG_DIR/durable-client-1.log" >&2
  exit 1
fi
grep CLIENT "$LOG_DIR/durable-client-1.log" || true

digests=()
for i in 0 1 2; do
  for _ in $(seq 1 "$WAIT"); do
    grep -q '^FINAL ' "$LOG_DIR/durable-replica-$i.log" && break
    sleep 1
  done
  final=$(grep '^FINAL ' "$LOG_DIR/durable-replica-$i.log" | tail -n1)
  if [ -z "$final" ] || ! grep -q "executed=$TOTAL" <<<"$final"; then
    echo "::error::durable-cluster survivor $i stopped short of $TOTAL txns" >&2
    cat "$LOG_DIR/durable-replica-$i.log" >&2
    exit 1
  fi
  echo "$final"
  digests+=("$(sed -n 's/.*digest=\([0-9a-f]*\).*/\1/p' <<<"$final")")
done
for d in "${digests[@]:1}"; do
  if [ "$d" != "${digests[0]}" ]; then
    echo "::error::durable-cluster survivor digests diverged: ${digests[*]}" >&2
    exit 1
  fi
done

# The restarted replica must converge to the survivors' digest with an
# executed count strictly below the cluster total: the snapshot prefix
# was *installed* from disk, not re-executed.
rejoin=""
for _ in $(seq 1 "$WAIT"); do
  rejoin=$(grep '^STATE ' "$LOG_DIR/durable-replica-3-restarted.log" | tail -n1 || true)
  if grep -q "digest=${digests[0]}" <<<"$rejoin"; then
    break
  fi
  rejoin=""
  sleep 1
done
if [ -z "$rejoin" ]; then
  echo "::error::restarted replica 3 never converged to digest ${digests[0]}" >&2
  tail -n 20 "$LOG_DIR/durable-replica-3-restarted.log" >&2
  exit 1
fi
echo "$rejoin"
r3_executed=$(sed -n 's/.*executed=\([0-9]*\).*/\1/p' <<<"$rejoin")
if [ -z "$r3_executed" ] || [ "$r3_executed" -ge "$TOTAL" ]; then
  echo "::error::restarted replica 3 executed $r3_executed/$TOTAL txns — it re-executed the snapshotted prefix" >&2
  exit 1
fi
echo "phase D OK: replica 3 recovered from local disk (snapshot_seq=$snap_seq, replayed $replayed txns) and converged to digest ${digests[0]}"
echo "fault-matrix smoke passed"
