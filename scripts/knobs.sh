#!/bin/sh
# knobs.sh — every option function must have a product caller.
#
# Lists each top-level `func With…` declared in non-test Go outside bench/,
# with the number of other non-test files that call it. A file in the same
# package calls it bare (`WithX(`); a file elsewhere imports the package
# and calls it through the import's name (`pkg.WithX(`, or the alias the
# import gives it). bench/, cmd/ and examples/ count as callers: they are
# product code. An option only tests set is a setting nobody can reach, so
# the script fails if any count is zero. A test that needs another value
# assigns the unexported field in its own package instead.
#
# Usage: scripts/knobs.sh   (from the repository root)
set -eu

module=$(sed -n 's/^module //p' go.mod)
files=$(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' | LC_ALL=C sort)
fail=0
for f in $files; do
    case $f in ./bench/*) continue ;; esac
    dir=$(dirname "$f")
    pkg=$(sed -n 's/^package \([A-Za-z0-9_]*\).*/\1/p' "$f" | head -n 1)
    if [ "$dir" = . ]; then
        path=$module
    else
        path=$module/${dir#./}
    fi
    for name in $(sed -n 's/^func \(With[A-Za-z0-9_]*\).*/\1/p' "$f"); do
        n=0
        for g in $files; do
            [ "$g" = "$f" ] && continue
            if [ "$(dirname "$g")" = "$dir" ]; then
                pat="(^|[^.A-Za-z0-9_])$name\("
            else
                imp=$(grep -E "^[[:space:]]*(import[[:space:]]+)?([A-Za-z_][A-Za-z0-9_]*[[:space:]]+)?\"$path\"" "$g" | head -n 1) || true
                [ -n "$imp" ] || continue
                alias=$(echo "$imp" | sed -E 's/^[[:space:]]*(import[[:space:]]+)?//; s/[[:space:]]*"[^"]*".*$//')
                pat="(^|[^A-Za-z0-9_])${alias:-$pkg}\.$name\("
            fi
            if grep -Eq "$pat" "$g"; then
                n=$((n + 1))
            fi
        done
        printf '%4d  %s.%s  (%s)\n' "$n" "$pkg" "$name" "${f#./}"
        if [ "$n" -eq 0 ]; then
            fail=1
        fi
    done
done
if [ "$fail" -ne 0 ]; then
    echo "knobs: an option above has no caller outside tests; make it a constant or an unexported field the package's tests assign" >&2
    exit 1
fi
