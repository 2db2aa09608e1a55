#!/usr/bin/env bash
# Prints non-test Rust line counts per crate, the way "net negative" PRs
# are measured: every file under crates/*/src, cut at the first
# `#[cfg(test)]` that opens a module (`mod tests`, possibly behind more
# attributes). A `#[cfg(test)]` on any other item — a test-only constant
# or function — does not cut; its lines count. `lines` counts everything
# above the cut; `code` drops blank lines and lines that are only a `//`
# comment.
#
#   scripts/loc.sh                  # one row per crate, plus a total
#   scripts/loc.sh crates/consensus # one row per file of that crate
#   scripts/loc.sh --markdown [...] # the same table as GitHub markdown
#   scripts/loc.sh --source <file>  # the lines of one file that count
set -euo pipefail

cd "$(dirname "$0")/.."

markdown=0
source=0
case "${1:-}" in
  --markdown) markdown=1; shift ;;
  --source) source=1; shift ;;
esac
crate="${1:-}"
crate="${crate%/}"

if [ "$source" = 1 ]; then
  files="$crate"
elif [ -n "$crate" ]; then
  files=$(find "$crate/src" -name '*.rs' | sort)
else
  files=$(find crates/*/src -name '*.rs' | sort)
fi

# shellcheck disable=SC2086
awk -v per_file="$([ -n "$crate" ] && echo 1 || echo 0)" -v markdown="$markdown" -v source="$source" '
  function count(line) {
    if (source) print line
    lines[key]++
    if (line !~ /^[[:space:]]*(\/\/.*)?$/) code[key]++
  }
  FNR == 1 {
    cut = 0
    held = 0
    key = FILENAME
    if (!per_file) { split(FILENAME, parts, "/"); key = parts[1] "/" parts[2] }
    if (!(key in lines)) { order[++n] = key; lines[key] = 0; code[key] = 0 }
  }
  cut { next }
  # Lines after a `#[cfg(test)]` are held until the item it gates shows:
  # further attributes stay held, a module cuts, anything else counts.
  held {
    if ($0 ~ /^[[:space:]]*#\[/) { buf[++held] = $0; next }
    if ($0 ~ /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/) { cut = 1; next }
    for (j = 1; j <= held; j++) count(buf[j])
    held = 0
  }
  /^[[:space:]]*#\[cfg\(test\)\]/ {
    if ($0 ~ /\][[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/) { cut = 1; next }
    buf[held = 1] = $0
    next
  }
  { count($0) }
  END {
    if (source) exit
    if (markdown) {
      print "| path | lines | code |"
      print "|---|---:|---:|"
      fmt = "| %s | %d | %d |\n"
    } else {
      fmt = "%-36s %7d %7d\n"
      printf "%-36s %7s %7s\n", "path", "lines", "code"
    }
    for (i = 1; i <= n; i++) {
      k = order[i]
      printf fmt, k, lines[k], code[k]
      total_lines += lines[k]; total_code += code[k]
    }
    printf fmt, "total", total_lines, total_code
  }
' $files
