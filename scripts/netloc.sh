#!/bin/sh
# netloc.sh — line counts of a change, split the way CHANGES.md reports
# them: production Go, test Go (_test.go), the perfbench module, and
# everything else (docs, CI, scripts, data). The "net LoC" figure is the
# production row's added minus removed.
#
#   scripts/netloc.sh BASE          # BASE against the working tree
#   scripts/netloc.sh BASE HEAD     # between two revisions
#
# Against the working tree, new files count once they are staged
# (git add); binary files are skipped.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: scripts/netloc.sh BASE [HEAD]" >&2
    exit 2
fi

cd "$(dirname "$0")/.."

git diff --numstat "$@" | awk -F '\t' '
    $1 == "-" { next }
    {
        path = $3
        # A rename prints as "dir/{old => new}" or "old => new"; classify
        # by the new name.
        sub(/\{[^}]* => /, "", path); sub(/\}/, "", path); sub(/^.* => /, "", path)
        if (path ~ /^perfbench\//) class = "perfbench"
        else if (path ~ /_test\.go$/) class = "test"
        else if (path ~ /\.go$/) class = "production"
        else class = "docs/CI"
        add[class] += $1; del[class] += $2
    }
    END {
        printf "%-12s %8s %8s %8s\n", "class", "added", "removed", "net"
        n = split("production test perfbench docs/CI", order, " ")
        for (i = 1; i <= n; i++) {
            c = order[i]
            printf "%-12s %8d %8d %+8d\n", c, add[c], del[c], add[c] - del[c]
        }
        printf "net LoC (production): %+d\n", add["production"] - del["production"]
    }'
