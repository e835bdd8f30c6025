#!/usr/bin/env bash
# Non-test lines per crate: for every `.rs` file under `crates/<name>/src`,
# the lines above its first `#[cfg(test)]` (the whole file when it has
# none). Prints one `<crate> <lines>` row per crate, largest first, then
# `total <lines>`.
#
# Then the panic sites per crate, counted over the same lines: each
# `unwrap()`, `expect(`, `panic!` and `unreachable!`, one `<crate> <sites>`
# row per crate, most first, then `total <sites>`.
#
#   bash ci/loc.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
rows=$(for src in crates/*/src; do
    crate=${src#crates/}
    crate=${crate%/src}
    find "$src" -name '*.rs' -exec awk -v crate="$crate" '
        FNR == 1 { test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
        !test {
            n++
            rest = $0
            while (match(rest, /unwrap\(\)|expect\(|panic!|unreachable!/)) {
                p++
                rest = substr(rest, RSTART + RLENGTH)
            }
        }
        END { print crate, n + 0, p + 0 }' {} +
done)
# One table: column `$1` of the rows, summed per crate.
table() {
    awk -v col="$1" '{ sum[$1] += $col } END { for (c in sum) print c, sum[c] }' <<<"$rows" |
        sort -k2,2nr -k1,1 | awk '{ print; total += $2 } END { print "total", total }'
}
table 2
echo
echo "panic sites (unwrap() expect( panic! unreachable!):"
table 3
