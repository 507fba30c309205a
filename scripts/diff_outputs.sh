#!/bin/sh
# Compare kwlab's CLI outputs at git revision REV with the working tree's:
#
#   scripts/diff_outputs.sh HEAD~
#
# Both sides run this checkout's scripts/cli_outputs.sh, so they write the
# same set of files; REV's source runs from a temporary git worktree, which
# is removed on exit.  Prints `diff -r` of the two output trees; exits
# nonzero on any difference.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
ROOT=$(cd "$(dirname "$0")/.." && pwd)
TMP=$(mktemp -d)
cleanup() {
    git -C "$ROOT" worktree remove --force "$TMP/rev" 2>/dev/null || true
    git -C "$ROOT" worktree prune
    rm -rf "$TMP"
}
trap cleanup EXIT
git -C "$ROOT" worktree add --detach --quiet "$TMP/rev" "$1"
mkdir -p "$TMP/rev/scripts"
cp "$ROOT/scripts/cli_outputs.sh" "$TMP/rev/scripts/cli_outputs.sh"
sh "$TMP/rev/scripts/cli_outputs.sh" "$TMP/before" >/dev/null
sh "$ROOT/scripts/cli_outputs.sh" "$TMP/after" >/dev/null
diff -r "$TMP/before" "$TMP/after"
