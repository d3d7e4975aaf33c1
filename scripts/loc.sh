#!/bin/sh
# loc.sh — non-test Go lines per package, and their total.
#
# Counts every line of each package's non-test .go files (comments and
# blank lines included, as wc -l counts them), one package directory per
# output line, then the total. bench/ is left out: it is its own module,
# the benchmark, not the program. The total is the size figure ROADMAP.md
# and CHANGES.md quote, so a PR's size delta is the difference of two runs.
#
# Usage: scripts/loc.sh   (from the repository root)
set -eu

counts=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.git/*' |
    while read -r f; do
        printf '%s %s\n' "$(dirname "$f" | sed 's|^\./||')" "$(wc -l <"$f")"
    done)

echo "$counts" | awk '{ n[$1] += $2 } END { for (d in n) printf "%6d  %s\n", n[d], d }' | LC_ALL=C sort -k2
echo "$counts" | awk '{ t += $2 } END { printf "%6d  total outside bench/\n", t }'
