#!/usr/bin/env bash
# Two full sets of runs of the same build. Fails (exit 1) if any gated
# metric of the second set is worse than the first by more than its
# bound, and prints the difference of every gated metric so the bounds
# can be judged. Takes the same --seed / --seconds as run.sh.
set -euo pipefail
exec "$(dirname "$0")/run.sh" --selfcheck "$@"
