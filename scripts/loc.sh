#!/usr/bin/env sh
# loc.sh — the "least code" trend line: non-test and test Go lines
# (wc -l) per package directory outside bench/, plus totals. `make loc`
# writes the result to the committed LOC.txt, so a PR's effect on code
# size shows up in its diff.
set -eu
cd "$(dirname "$0")/.."

echo "# Go lines per package outside bench/ (wc -l). Regenerate with \`make loc\`."
printf '%-28s %9s %9s\n' package non-test test
find . -name '*.go' -not -path './bench/*' | sed 's|^\./||' | sort | while read -r f; do
    case "$f" in */*) dir="${f%/*}" ;; *) dir="." ;; esac
    case "$f" in *_test.go) kind=test ;; *) kind=code ;; esac
    echo "$dir $kind $(wc -l <"$f")"
done | awk '
    { n[$1] = 1; if ($2 == "test") t[$1] += $3; else c[$1] += $3 }
    END {
        for (d in n) printf "%-28s %9d %9d\n", d, c[d], t[d] | "sort"
        close("sort")
        for (d in n) { tc += c[d]; tt += t[d] }
        printf "%-28s %9d %9d\n", "total", tc, tt
    }'
