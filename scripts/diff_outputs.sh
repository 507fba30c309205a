#!/bin/sh
# Compare kwlab's CLI outputs at git revision REV with the working tree's:
#
#   scripts/diff_outputs.sh HEAD~
#
# Both sides run this checkout's scripts/cli_outputs.sh, so they write the
# same set of files; REV's files are extracted with `git archive` into a
# temporary directory, removed on exit, so the repository's .git is only
# read.  Prints `diff -r` of the two output trees; exits nonzero on any
# difference.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
ROOT=$(cd "$(dirname "$0")/.." && pwd)
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/rev"
# through a file, not a pipe, so that a bad REV stops the script
git -C "$ROOT" archive --output="$TMP/rev.tar" "$1"
tar -x -f "$TMP/rev.tar" -C "$TMP/rev"
mkdir -p "$TMP/rev/scripts"
cp "$ROOT/scripts/cli_outputs.sh" "$TMP/rev/scripts/cli_outputs.sh"
sh "$TMP/rev/scripts/cli_outputs.sh" "$TMP/before" >/dev/null
sh "$ROOT/scripts/cli_outputs.sh" "$TMP/after" >/dev/null
diff -r "$TMP/before" "$TMP/after"
