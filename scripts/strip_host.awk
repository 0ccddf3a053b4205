# Print a BENCH_*.json without its top-level "host" block — the wall-clock
# footer (host_seconds and friends) that varies run to run. Brace-depth
# aware, so nested blocks (micro's "detail") strip cleanly too.
#
#   awk -f scripts/strip_host.awk BENCH_x.json
/^  "host": \{$/ { depth = 1; next }
depth > 0 {
    if (/\{$/) depth++
    else if (/^[[:space:]]*\},?$/) depth--
    next
}
{ print }
