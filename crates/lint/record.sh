#!/bin/sh
# The record loop of LINTS.md ("The record: what each pass has caught"):
# scans committed trees with one distrust-lint binary and prints how many
# findings each pass has on each tree, allowlisted ones apart.
#
#   crates/lint/record.sh [-b BINARY] [-o DIR] SHA...
#
# For each SHA, `git archive` writes its `crates src tests examples e2e/src`
# (the last three are the dead-surface pass's callers; a path the tree does
# not have is skipped) into DIR/SHA
# (default DIR: a fresh directory under ${TMPDIR:-/tmp}), the binary writes
# its `--root DIR/SHA --format json` report to DIR/SHA.json, and one line
# per tree follows on stdout:
#
#   <sha> <pass>=<count>[+<allowed>a] ...      (or "<sha> clean")
#
# The reports stay in DIR, so two binaries can be compared report by report
# with `diff` (run the loop twice with two -o directories). BINARY defaults
# to target/release/distrust-lint, built with
# `cargo build --release -p distrust-lint`. Needs git, tar and jq; run it
# from inside the repository.
set -eu

bin=target/release/distrust-lint
out=
while getopts b:o: opt; do
    case $opt in
    b) bin=$OPTARG ;;
    o) out=$OPTARG ;;
    *) echo "usage: $0 [-b BINARY] [-o DIR] SHA..." >&2; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
[ $# -gt 0 ] || { echo "usage: $0 [-b BINARY] [-o DIR] SHA..." >&2; exit 2; }
[ -x "$bin" ] || { echo "$0: no binary at $bin" >&2; exit 2; }
[ -n "$out" ] || out=$(mktemp -d "${TMPDIR:-/tmp}/lint-record.XXXXXX")
mkdir -p "$out"

for sha in "$@"; do
    tree=$out/$sha
    if [ ! -d "$tree" ]; then
        mkdir -p "$tree"
        # A tree may predate `tests/` or `e2e/`: archive the paths it has.
        paths=$(for p in crates src tests examples e2e/src; do
            if git cat-file -e "$sha:$p" 2>/dev/null; then echo "$p"; fi
        done)
        # shellcheck disable=SC2086 # one word per path
        git archive "$sha" $paths | tar -x -C "$tree"
    fi
    # The exit code says whether findings were denied; the counts say more.
    "$bin" --root "$tree" --format json > "$out/$sha.json" || [ $? -eq 1 ]
    counts=$(jq -r '
        [.findings[] | {pass, allowed}] | group_by(.pass)
        | map("\(.[0].pass)=\(map(select(.allowed | not)) | length)"
              + (map(select(.allowed)) | length
                 | if . > 0 then "+\(.)a" else "" end))
        | join(" ")' "$out/$sha.json")
    echo "$sha ${counts:-clean}"
done
echo "reports in $out" >&2
