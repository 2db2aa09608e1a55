#!/usr/bin/env bash
# Per-thread and per-stage CPU attribution of a running node, from /proc:
# samples /proc/<pid>/task/*/{comm,stat,status} twice and prints, per
# thread and summed per pipeline stage, user/sys CPU ticks and voluntary /
# involuntary context switches per second over the window — plus µs of CPU
# per confirmed transaction when the window's transaction count is known.
# Stage threads are named `r<replica>-<stage>-<index>`, so a stage is the
# name minus its replica prefix and index suffix; every other thread
# (clients, reactor, main) is grouped under its own name.
#
#   scripts/threadcpu.sh <pid> [seconds] [txns]
#       attach to a running process (rdb-node, an example, the benchmark)
#   scripts/threadcpu.sh --workload <name> [seconds]
#       start `benchmark/run.sh --workload <name>`, sample the middle of
#       its run, and take the transaction count from its reported tps
#
# Linux only (reads /proc). Default window: 8 seconds.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  sed -n '2,/^set -euo/p' "$0" | sed '$d' | sed 's/^# \{0,1\}//' >&2
  exit 2
}

# One line per thread: tid utime stime voluntary involuntary comm.
snapshot() {
  local pid=$1 task stat rest
  for task in /proc/"$pid"/task/[0-9]*; do
    # A thread may exit between the glob and the reads: skip it.
    stat=$(cat "$task/stat" 2>/dev/null) || continue
    rest=${stat##*) } # comm may contain spaces; fields resume after ")"
    # shellcheck disable=SC2086
    set -- $rest
    awk -v tid="${task##*/}" -v ut="${12}" -v st="${13}" '
      FILENAME ~ /comm$/ { comm = $0 }
      /^voluntary_ctxt_switches/ { vol = $2 }
      /^nonvoluntary_ctxt_switches/ { invol = $2 }
      END { print tid, ut, st, vol + 0, invol + 0, comm }
    ' "$task/comm" "$task/status" 2>/dev/null || true
  done
}

report() {
  local before=$1 after=$2 seconds=$3 txns=$4
  awk -v secs="$seconds" -v txns="$txns" -v hz="$(getconf CLK_TCK)" '
    function stage_of(comm,   s) {
      s = comm
      if (s ~ /^r[0-9]+-/) sub(/^r[0-9]+-/, "", s)
      sub(/-[0-9]+$/, "", s)
      return s
    }
    function row(name, u, s, v, i) {
      printf "%-22s %8d %8d %10.0f %10.0f", name, u, s, v / secs, i / secs
      if (txns > 0) printf " %10.2f", (u + s) * 1e6 / hz / txns
      printf "\n"
    }
    function header(first) {
      printf "%-22s %8s %8s %10s %10s", first, "user", "sys", "vol_cs/s", "invol_cs/s"
      if (txns > 0) printf " %10s", "us/txn"
      printf "\n"
    }
    NR == FNR { u0[$1] = $2; s0[$1] = $3; v0[$1] = $4; i0[$1] = $5; next }
    ($1 in u0) {
      comm = $6; for (f = 7; f <= NF; f++) comm = comm " " $f
      du = $2 - u0[$1]; ds = $3 - s0[$1]; dv = $4 - v0[$1]; di = $5 - i0[$1]
      n++; names[n] = comm; tu[n] = du; ts[n] = ds; tv[n] = dv; ti[n] = di
      st = stage_of(comm)
      if (!(st in su)) order[++m] = st
      su[st] += du; ss[st] += ds; sv[st] += dv; si[st] += di; threads[st]++
      au += du; as += ds; av += dv; ai += di
    }
    END {
      printf "window %ss, %d threads, CLK_TCK %d", secs, n, hz
      if (txns > 0) printf ", %d txns", txns
      printf "\n\n"
      header("thread")
      for (k = 1; k <= n; k++) row(names[k], tu[k], ts[k], tv[k], ti[k])
      printf "\n"
      header("stage (threads)")
      for (k = 1; k <= m; k++) {
        st = order[k]
        row(st " (" threads[st] ")", su[st], ss[st], sv[st], si[st])
      }
      row("total", au, as, av, ai)
    }
  ' "$before" "$after"
}

# Two snapshots `seconds` apart; prints the directory holding them.
sample() {
  local pid=$1 seconds=$2 tmp
  tmp=$(mktemp -d)
  snapshot "$pid" | sort -k6 >"$tmp/before"
  sleep "$seconds"
  snapshot "$pid" | sort -k6 >"$tmp/after"
  echo "$tmp"
}

[ $# -ge 1 ] || usage
if [ "$1" = "--workload" ]; then
  [ $# -ge 2 ] || usage
  workload=$2
  seconds=${3:-8}
  out=$(mktemp)
  # run.sh builds, then `exec`s the benchmark: same pid throughout. The
  # run is setup (< 1 s), 2 s of warm-up, then the measured seconds; the
  # window below starts 3 s in and ends 1 s before the run does.
  bash benchmark/run.sh --workload "$workload" --seconds $((seconds + 2)) >"$out" &
  pid=$!
  until [ "$(cat "/proc/$pid/comm" 2>/dev/null)" = "rdb-benchmark" ]; do
    kill -0 "$pid" 2>/dev/null || { echo "benchmark never started" >&2; exit 1; }
    sleep 0.2
  done
  sleep 3
  tmp=$(sample "$pid" "$seconds")
  wait "$pid"
  tps=$(tail -1 "$out" | sed -n 's/.*"tps": *{"value": *\([0-9.]*\).*/\1/p')
  txns=$(awk -v t="${tps:-0}" -v s="$seconds" 'BEGIN { printf "%d", t * s }')
  echo "workload $workload: tps ${tps:-unknown}"
  report "$tmp/before" "$tmp/after" "$seconds" "$txns"
  rm -rf "$tmp" "$out"
else
  pid=$1
  seconds=${2:-8}
  txns=${3:-0}
  [ -d "/proc/$pid/task" ] || { echo "no such process: $pid" >&2; exit 1; }
  tmp=$(sample "$pid" "$seconds")
  report "$tmp/before" "$tmp/after" "$seconds" "$txns"
  rm -rf "$tmp"
fi
