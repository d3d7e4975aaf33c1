#!/bin/sh
# checkmetrics.sh — the PS transport's metric series against the docs.
#
# Every netps_* name registered in non-test Go (a Counter, Gauge or
# Histogram call on a metrics registry) must appear by exact name in
# docs/ARCHITECTURE.md's "Metric schema" section, and every netps_* name
# listed there must be registered somewhere: a series added without its
# row, or a row left behind by a deleted series, fails.
#
# Usage: scripts/checkmetrics.sh   (from the repository root)
set -eu

doc=docs/ARCHITECTURE.md
{
    find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.git/*' -exec cat {} + |
        grep -o '\.\(Counter\|Gauge\|Histogram\)("netps_[a-z_]*"' |
        sed 's/.*("\(.*\)"/registered \1/'
    awk '/^## Metric schema/ { on = 1; next } /^## / { on = 0 } on' "$doc" |
        grep -o 'netps_[a-z][a-z_]*[a-z]' | sed 's/^/documented /'
} | awk -v doc="$doc" '
    $1 == "registered" { reg[$2] = 1 }
    $1 == "documented" { documented[$2] = 1 }
    END {
        for (n in reg) {
            total++
            if (!(n in documented)) { printf "%s: registered series %s is missing from the Metric schema\n", doc, n; bad = 1 }
        }
        for (n in documented)
            if (!(n in reg)) { printf "%s: the Metric schema lists %s, which no non-test code registers\n", doc, n; bad = 1 }
        if (bad) { print "checkmetrics: FAILED"; exit 1 }
        printf "checkmetrics: OK (%d netps series documented)\n", total
    }'
