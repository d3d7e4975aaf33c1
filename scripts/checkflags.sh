#!/bin/sh
# checkflags.sh — the bytesched command line against the README.
#
# Every flag cmd/bytesched registers (a flag.*Var(&o.X, "name", …) call)
# must appear as a backticked `-name` in README.md's "`bytesched` flags"
# table, and every backticked `-name` there must be registered: a flag
# added without its row, or a row left behind by a renamed or deleted
# flag, fails.
#
# Usage: scripts/checkflags.sh   (from the repository root)
set -eu

doc=README.md
{
    find cmd/bytesched -name '*.go' ! -name '*_test.go' -exec cat {} + |
        grep -o 'flag\.[A-Za-z0-9]*Var(&o\.[A-Za-z0-9]*, "[^"]*"' |
        sed 's/.*"\(.*\)"/registered \1/'
    awk '/^### `bytesched` flags/ { on = 1; next } /^#/ { on = 0 } on && /^\|/' "$doc" |
        grep -o '`-[a-z0-9][a-z0-9-]*`' | tr -d '`' | sed 's/^-/documented /'
} | awk -v doc="$doc" '
    $1 == "registered" { reg[$2] = 1 }
    $1 == "documented" { documented[$2] = 1 }
    END {
        for (n in reg) {
            total++
            if (!(n in documented)) { printf "%s: bytesched flag -%s is missing from the flags table\n", doc, n; bad = 1 }
        }
        for (n in documented)
            if (!(n in reg)) { printf "%s: the flags table lists -%s, which bytesched does not register\n", doc, n; bad = 1 }
        if (bad) { print "checkflags: FAILED"; exit 1 }
        printf "checkflags: OK (%d bytesched flags documented)\n", total
    }'
