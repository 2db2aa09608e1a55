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
#   scripts/callers.sh              # one `path:line name` per candidate
#   scripts/callers.sh --markdown   # the same list as GitHub markdown
set -euo pipefail

cd "$(dirname "$0")/.."

markdown=0
if [ "${1:-}" = "--markdown" ]; then
  markdown=1
fi

files=$(find crates examples benchmark/src src -name '*.rs' \
  -not -path '*/target/*' -not -path '*/tests/*' | sort)

# shellcheck disable=SC2086
awk -v markdown="$markdown" '
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
    for (i = 1; i <= n; i++) {
      if (uses[defs[i]] > 0) continue
      found++
      if (markdown) printf "| %s | `%s` |\n", where[i], defs[i]
      else printf "%s %s\n", where[i], defs[i]
    }
    if (markdown) printf "\n%d `pub fn` with no caller outside tests.\n", found
    else printf "%d pub fn with no caller outside tests\n", found
  }
' $files
