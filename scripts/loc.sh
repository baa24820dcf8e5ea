#!/usr/bin/env bash
# Non-test lines under crates/, counted "the PR 14 way" — the figure every
# CHANGES.md entry quotes: for each `*.rs` under `crates/` outside a `tests/`
# directory, every line above the file's first `#[cfg(test)]`, comments and
# blank lines included. A reporting aid, not a gate.
#
#   scripts/loc.sh [<base-rev>]
#
# Prints one row a crate for the working tree; with a base revision, that
# revision's count and the delta next to it.
set -euo pipefail
cd "$(dirname "$0")/.."
base="${1:-}"

# Reads `<path>` lines on stdin, cats each through "$@" (the command that
# prints a file), and prints `<crate> <lines>` a crate.
count() {
    while read -r f; do
        crate="${f#crates/}"
        printf '%s %s\n' "${crate%%/*}" "$("$@" "$f" | awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }')"
    done | awk '{ n[$1] += $2 } END { for (c in n) print c, n[c] }' | sort
}

now=$(find crates -name '*.rs' -not -path '*/tests/*' | sort | count cat)
if [[ -z "$base" ]]; then
    awk '{ printf "%-10s %7d\n", $1, $2; t += $2 } END { printf "%-10s %7d\n", "total", t }' <<<"$now"
    exit 0
fi

show() { git show "$base:$1"; }
then=$(git ls-tree -r --name-only "$base" crates | grep '\.rs$' | grep -v '/tests/' | count show)
join -a1 -a2 -e0 -o 0,1.2,2.2 <(echo "$then") <(echo "$now") | awk -v base="$base" '
    BEGIN { printf "%-10s %7s %7s %7s\n", "crate", substr(base, 1, 7), "tree", "delta" }
    { printf "%-10s %7d %7d %+7d\n", $1, $2, $3, $3 - $2; a += $2; b += $3 }
    END { printf "%-10s %7d %7d %+7d\n", "total", a, b, b - a }'
