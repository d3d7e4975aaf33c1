#!/bin/sh
# checkdocs.sh — doc-comment lint for exported Go API.
#
# Every exported top-level symbol (func, method, type, var, const) in the
# checked packages must carry a doc comment on the line directly above its
# declaration. This is stricter than vet (which only checks comment *form*)
# and keeps the operator-facing packages honest: if it is exported, it is
# documented.
#
# Grouped `const (...)` / `var (...)` blocks are covered by requiring a doc
# comment on the block itself; individual names inside a block are not
# checked (idiomatic enums document the block once).
#
# Usage: scripts/checkdocs.sh [pkg-dir ...]
#        (defaults to the packages with operator-facing API surface, plus
#        internal/wire and internal/netps: the frame format both live
#        transports depend on, and the PS client API with its buffer
#        ownership contracts)
set -u

dirs="${*:-internal/autotune internal/tune internal/metrics internal/wire internal/netps}"

fail=0
total=0
for d in $dirs; do
    if [ ! -d "$d" ]; then
        echo "checkdocs: no such directory: $d" >&2
        exit 2
    fi
    for f in "$d"/*.go; do
        case $f in
        *_test.go) continue ;;
        esac
        out=$(awk '
            /^func \([^)]*\) [A-Z][A-Za-z0-9_]*\(/ ||
            /^func [A-Z][A-Za-z0-9_]*\(/ ||
            /^type [A-Z]/ ||
            /^var [A-Z]/ || /^var \(/ ||
            /^const [A-Z]/ || /^const \(/ {
                n++
                if (prev !~ /^\/\//)
                    printf "%s:%d: exported symbol without doc comment: %s\n", FILENAME, FNR, $0
            }
            { prev = $0 }
            END { print "CHECKED " n > "/dev/stderr" }
        ' "$f" 2>/tmp/checkdocs.$$)
        n=$(sed -n 's/^CHECKED //p' /tmp/checkdocs.$$)
        total=$((total + ${n:-0}))
        if [ -n "$out" ]; then
            echo "$out" >&2
            fail=1
        fi
    done
done
rm -f /tmp/checkdocs.$$

if [ "$fail" -ne 0 ]; then
    echo "checkdocs: FAILED" >&2
    exit 1
fi
echo "checkdocs: OK ($total exported symbols documented in: $dirs)"
