#!/usr/bin/env bash
# Net program lines per crate: the non-blank, non-comment lines of each
# Rust file up to its first `#[cfg(test)]` or `#[cfg(all(test, ...))]`,
# summed per source directory (`crates/*/src`, `src`, `perfbench/src`).
# Prints the count at REV (default HEAD, read through `git show`), in the
# working tree (tracked and untracked, non-ignored files), and the delta.
#
# Usage: scripts/program_lines.sh [REV]
set -euo pipefail

rev=${1:-HEAD}
cd "$(git rev-parse --show-toplevel)"
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "program_lines.sh: unknown revision: $rev" >&2
    exit 2
}

# Reads one Rust file on stdin and prints its program-line count.
count() {
    awk '/^[[:space:]]*#\[cfg\((all\()?test[,)]/ { exit }
         /^[[:space:]]*$/ { next }
         /^[[:space:]]*\/\// { next }
         { n++ }
         END { print n + 0 }'
}

# Source directories present at REV or in the working tree.
dirs=$({
    git ls-tree -d --name-only "$rev" crates/ | sed 's|$|/src|'
    ls -d crates/*/src 2>/dev/null
    echo src
    echo perfbench/src
} | sort -u)

at_rev() {
    local total=0 f
    for f in $(git ls-tree -r --name-only "$rev" -- "$1/" | grep '\.rs$' || true); do
        total=$((total + $(git show "$rev:$f" | count)))
    done
    echo "$total"
}

in_tree() {
    local total=0 f
    for f in $(git ls-files --cached --others --exclude-standard -- "$1/" | grep '\.rs$' || true); do
        [ -f "$f" ] && total=$((total + $(count < "$f")))
    done
    echo "$total"
}

printf '%-22s %9s %9s %7s\n' directory "$(git rev-parse --short "$rev")" worktree delta
sum_rev=0
sum_tree=0
for d in $dirs; do
    a=$(at_rev "$d")
    b=$(in_tree "$d")
    [ "$a" -eq 0 ] && [ "$b" -eq 0 ] && continue
    printf '%-22s %9d %9d %+7d\n' "$d" "$a" "$b" $((b - a))
    sum_rev=$((sum_rev + a))
    sum_tree=$((sum_tree + b))
done
printf '%-22s %9d %9d %+7d\n' total "$sum_rev" "$sum_tree" $((sum_tree - sum_rev))
