#!/usr/bin/env bash
# Dead-code census: every library function that no shipped binary links.
#
# The `dead_code` lint never fires on a `pub` item of a library crate, so a
# public function whose last caller went away stays compiled and tested
# forever. This script asks the linker instead. It builds the shipped
# binaries in debug (`hostnet`, the examples and hostbench; the debug
# linker's `--gc-sections` keeps only reachable functions), lists the text
# symbols each workspace rlib defines, and prints every one that no binary
# defines, as `crate<TAB>path`.
#
# With `--check` it compares that list with `scripts/dead-code-allowlist.txt`
# (the functions kept for tests, each with its caller) and exits 1 when the
# two differ in either direction.
#
# Limits: generic and `#[inline]` functions are compiled into their callers,
# and trait methods are dropped (a trait impl is reached through the trait),
# so the census under-counts. Needs cargo, jq and binutils' nm.
#
#   scripts/dead-code-census.sh           # print the census
#   scripts/dead-code-census.sh --check   # diff it against the allowlist
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
work=$(mktemp -d)
cp hostbench/Cargo.lock "$work/hostbench.Cargo.lock"
restore() {
    # Every hostbench build re-resolves its lockfile; leave it as checked in.
    cp "$work/hostbench.Cargo.lock" hostbench/Cargo.lock
    rm -rf "$work"
}
trap restore EXIT

# Artifacts as `build<TAB>kind<TAB>crate<TAB>file`, straight from cargo's
# own messages, so a stale rlib left in target/ by an older build never
# counts.
artifacts() {
    jq -r --arg build "$1" 'select(.reason == "compiler-artifact")
        | select(.package_id | startswith("path+file://"))
        | (.target.kind | join(",")) as $kind
        | (.target.name | gsub("-"; "_")) as $name
        | .filenames[]
        | select(endswith(".rlib") or $kind == "bin" or $kind == "example")
        | [$build, $kind, $name, .] | @tsv'
}
{
    cargo build --offline --quiet --message-format=json --bin hostnet --examples |
        artifacts workspace
    cargo build --offline --quiet --message-format=json --manifest-path hostbench/Cargo.toml |
        artifacts hostbench
} >"$work/artifacts.tsv"

# Defined text symbols, demangled and without hash suffixes; closures, drop
# glue and trait impls (`<T as Trait>::f`) are left out.
symbols() {
    nm --defined-only -C "$@" 2>/dev/null |
        awk '$2 == "T" || $2 == "t" { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
        sed -E 's/::h[0-9a-f]{16}$//' |
        awk '!/\{\{closure\}\}|drop_in_place|^</' |
        sort -u
}

mapfile -t binaries < <(awk -F'\t' '$2 == "bin" || $2 == "example" { print $4 }' "$work/artifacts.tsv")
symbols "${binaries[@]}" >"$work/linked.txt"

# Each crate's own functions (an rlib also holds the std code it
# monomorphised), from the workspace build; hostbench's build compiles the
# same crates again. The proptest shim and the `hostnet` facade ship no
# code of their own.
awk -F'\t' '$1 == "workspace" && $2 == "lib" && $3 != "proptest" && $3 != "hostnet"' \
    "$work/artifacts.tsv" |
    while IFS=$'\t' read -r _ _ crate rlib; do
        symbols "$rlib" | awk -v p="$crate::" 'index($0, p) == 1' |
            comm -23 - "$work/linked.txt" | sed "s/^/$crate\t/"
    done | sort -u >"$work/census.txt"

if [[ "${1:-}" != "--check" ]]; then
    cat "$work/census.txt"
    exit 0
fi

# The allowlist is `path  # caller`; comments and blank lines are skipped.
sed -E 's/#.*//; s/[[:space:]]+$//; /^$/d' scripts/dead-code-allowlist.txt |
    sort -u >"$work/allowed.txt"
cut -f2 "$work/census.txt" | sort -u >"$work/found.txt"
comm -23 "$work/found.txt" "$work/allowed.txt" >"$work/unlisted.txt"
comm -13 "$work/found.txt" "$work/allowed.txt" >"$work/stale.txt"
if [[ -s "$work/unlisted.txt" ]]; then
    echo "dead-code census: linked into no shipped binary, and not allowlisted:" >&2
    sed 's/^/  /' "$work/unlisted.txt" >&2
fi
if [[ -s "$work/stale.txt" ]]; then
    echo "dead-code census: allowlisted but not in the census (drop the entry):" >&2
    sed 's/^/  /' "$work/stale.txt" >&2
fi
if [[ -s "$work/unlisted.txt" || -s "$work/stale.txt" ]]; then
    exit 1
fi
echo "dead-code census: $(wc -l <"$work/found.txt") functions, all allowlisted"
