#!/usr/bin/env bash
# Reachability probe: which retsim:: functions does no shipped binary
# need?
#
# Builds the library, benches, examples and tools (tests off) and
# perfbench at -O0, so that no function survives only as a copy
# inlined into a live caller, with every function and datum in its own
# section and the linker dropping the sections nothing references.
# A retsim:: function defined in one of the libraries but in none of
# the linked binaries is reached by no binary.  Each such name must
# appear in tools/reachability_keep.txt ("name<TAB>reason") or the
# probe fails.
#
# Run from anywhere: tools/reachability.sh.  Builds into build-reach/
# (logs in build-reach/{configure,build}.log; exit 2 if the build
# fails).  Prints each unreached name that has no keep line, then each
# keep line whose name is no longer unreached; exits 1 if it printed
# anything.
set -euo pipefail
export LC_ALL=C

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/build-reach"
keep="$root/tools/reachability_keep.txt"
jobs="$(nproc 2>/dev/null || echo 2)"
mkdir -p "$out"

flags=(
    -DCMAKE_BUILD_TYPE=Release
    "-DCMAKE_CXX_FLAGS_RELEASE=-O0 -DNDEBUG"
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)

cmake -S "$root" -B "$out/main" "${flags[@]}" \
    -DRETSIM_BUILD_TESTS=OFF > "$out/configure.log" 2>&1 ||
    { cat "$out/configure.log" >&2; exit 2; }
cmake --build "$out/main" -j "$jobs" > "$out/build.log" 2>&1 ||
    { tail -n 40 "$out/build.log" >&2; exit 2; }
cmake -S "$root/perfbench" -B "$out/perfbench" "${flags[@]}" \
    >> "$out/configure.log" 2>&1 ||
    { cat "$out/configure.log" >&2; exit 2; }
cmake --build "$out/perfbench" -j "$jobs" >> "$out/build.log" 2>&1 ||
    { tail -n 40 "$out/build.log" >&2; exit 2; }

libs=$(find "$out/main/src" -name 'libretsim_*.a' | sort)
bins=$(find "$out/main/bench" "$out/main/examples" "$out/main/tools" \
            "$out/perfbench" -maxdepth 1 -type f -perm -u+x | sort)

# Demangled names of the retsim:: functions the object files define.
# Matching on the mangled name keeps only functions whose own name
# lies in retsim (members, free functions, lambdas and local classes
# inside them), so std:: template instantiations drop out even when
# they are over retsim types; a '.' marks a compiler [clone ...] copy.
# A demangled name that does not start with retsim:: is a function
# template instantiation (its return type comes first); it lives and
# dies with its callers, so it drops out too.  Constructor and
# destructor variants (C1/C2, D0/D1/D2) demangle to one name, so
# sort -u folds them.  std::string and std::ostream are spelled short.
functions() {
    nm --defined-only "$@" 2>/dev/null |
        awk '$2 ~ /^[TtWw]$/ && $3 ~ /^_ZZ?N[rVKRO]*6retsim/ &&
             $3 !~ /\./ { print $3 }' |
        c++filt |
        sed -e 's/std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >/std::string/g' \
            -e 's/std::basic_ostream<char, std::char_traits<char> >/std::ostream/g' \
            -e 's/\[abi:cxx11\]//g' |
        awk '/^retsim::/' | sort -u
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# shellcheck disable=SC2086
functions $libs > "$tmp/defined"
# shellcheck disable=SC2086
functions $bins > "$tmp/reached"
comm -23 "$tmp/defined" "$tmp/reached" > "$tmp/unreached"

awk -F '\t' '!/^#/ && NF { print $1 }' "$keep" | sort -u > "$tmp/kept"
comm -23 "$tmp/unreached" "$tmp/kept" > "$tmp/new"
comm -13 "$tmp/unreached" "$tmp/kept" > "$tmp/stale"

status=0
if [ -s "$tmp/new" ]; then
    echo "reached by no binary and not on the keep list:"
    sed 's/^/  /' "$tmp/new"
    status=1
fi
if [ -s "$tmp/stale" ]; then
    echo "keep entries that are no longer unreached:"
    sed 's/^/  /' "$tmp/stale"
    status=1
fi
echo "$(wc -l < "$tmp/unreached") unreached, $(wc -l < "$tmp/kept") kept"
exit "$status"
