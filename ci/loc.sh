#!/usr/bin/env bash
# Non-test lines per crate: for every `.rs` file under `crates/<name>/src`,
# the lines above its first `#[cfg(test)]` (the whole file when it has
# none). Prints one `<crate> <lines>` row per crate, largest first, then
# `total <lines>`.
#
#   bash ci/loc.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
for src in crates/*/src; do
    crate=${src#crates/}
    crate=${crate%/src}
    find "$src" -name '*.rs' -exec awk -v crate="$crate" '
        FNR == 1 { test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
        !test { n++ }
        END { print crate, n + 0 }' {} +
done | sort -k2,2nr -k1,1 | awk '{ print; total += $2 } END { print "total", total }'
