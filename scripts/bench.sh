#!/usr/bin/env bash
# bench.sh — run the report-hot-path benchmarks and emit BENCH_report.json.
#
# Usage:
#   scripts/bench.sh [output.json]
#       run the tracked benchmarks and write the JSON artifact
#       (default BENCH_report.json at the repo root)
#   scripts/bench.sh --check [baseline.json]
#       run the tracked benchmarks and diff ns/op against the checked-in
#       baseline (default BENCH_report.json); exits non-zero when any
#       tracked bench regressed by more than 25% ns/op. New benches (absent
#       from the baseline) are reported but never fail the check.
#
# BENCHTIME, when set, is passed through as -benchtime (e.g. BENCHTIME=0.2s
# for the CI smoke run). The JSON artifact pins ns/op, B/op and allocs/op
# for every hot-path benchmark so the perf trajectory is diffable across
# PRs. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

mode=report
if [ "${1:-}" = "--check" ]; then
    mode=check
    shift
fi

benches='BenchmarkProtocolEncodeDecode|BenchmarkMQTTTopicMatch|BenchmarkSimKernel|BenchmarkChainAppend|BenchmarkReportPath|BenchmarkBrokerFanout|BenchmarkStoreAndForward|BenchmarkConsensusDecide|BenchmarkConsensusDecideNoAuth|BenchmarkInstrumentedReportPath|BenchmarkChainFile'

raw="$(mktemp)"
tmpjson="$(mktemp)"
trap 'rm -f "$raw" "$tmpjson"' EXIT

benchtime_args=()
if [ -n "${BENCHTIME:-}" ]; then
    benchtime_args=(-benchtime "$BENCHTIME")
fi

# ${arr[@]+...} guards the empty-array expansion: bash < 4.4 (macOS stock
# 3.2) treats it as unbound under `set -u`.
go test -run '^$' -bench "$benches" -benchmem ${benchtime_args[@]+"${benchtime_args[@]}"} ./... | tee "$raw"

# The sharded-ingest bench runs as a GOMAXPROCS matrix (-cpu 1,2,4): shard
# affinity only pays when the scheduler has real width, so the report pins
# all three points. Its -N suffix is preserved as /gomaxprocs=N in the JSON
# (every other bench has the suffix stripped as machine-dependent noise).
go test -run '^$' -bench 'BenchmarkAggregatorIngestSharded' -benchmem -cpu 1,2,4 \
    ${benchtime_args[@]+"${benchtime_args[@]}"} . | tee -a "$raw"

emit_json() {
    awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v rev="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" '
    BEGIN { n = 0 }
    /^Benchmark/ {
        name = $1
        if (name ~ /^BenchmarkAggregatorIngestSharded\//) {
            # go test only appends -N when GOMAXPROCS != 1.
            cpus = "1"
            if (match(name, /-[0-9]+$/)) {
                cpus = substr(name, RSTART + 1)
                sub(/-[0-9]+$/, "", name)
            }
            name = name "/gomaxprocs=" cpus
        } else {
            sub(/-[0-9]+$/, "", name)
        }
        ns = ""; bytes = ""; allocs = ""; rps = ""; recs = ""; wc = ""; nsrec = ""
        for (i = 2; i <= NF; i++) {
            if ($(i) == "ns/op")          ns = $(i-1)
            if ($(i) == "B/op")           bytes = $(i-1)
            if ($(i) == "allocs/op")      allocs = $(i-1)
            if ($(i) == "reports/s")      rps = $(i-1)
            if ($(i) == "records/s")      recs = $(i-1)
            if ($(i) == "windowclose_ns") wc = $(i-1)
            if ($(i) == "ns/record")      nsrec = $(i-1)
        }
        if (ns == "") next
        entry = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s", name, ns)
        if (bytes != "")  entry = entry sprintf(", \"bytes_per_op\": %s", bytes)
        if (allocs != "") entry = entry sprintf(", \"allocs_per_op\": %s", allocs)
        if (rps != "")    entry = entry sprintf(", \"reports_per_sec\": %s", rps)
        if (recs != "")   entry = entry sprintf(", \"records_per_sec\": %s", recs)
        if (wc != "")     entry = entry sprintf(", \"windowclose_ns\": %s", wc)
        if (nsrec != "")  entry = entry sprintf(", \"ns_per_record\": %s", nsrec)
        entry = entry "}"
        entries[n++] = entry
    }
    END {
        printf "{\n"
        printf "  \"generated_by\": \"scripts/bench.sh\",\n"
        printf "  \"date\": \"%s\",\n", date
        printf "  \"git_rev\": \"%s\",\n", rev
        printf "  \"benchmarks\": [\n"
        for (i = 0; i < n; i++) printf "%s%s\n", entries[i], (i < n-1 ? "," : "")
        printf "  ]\n}\n"
    }' "$raw"
}

if [ "$mode" = report ]; then
    out="${1:-BENCH_report.json}"
    emit_json > "$out"
    echo "wrote $out"
    exit 0
fi

# --check: compare the fresh run against the checked-in baseline.
baseline="${1:-BENCH_report.json}"
if [ ! -f "$baseline" ]; then
    echo "bench.sh --check: baseline $baseline not found" >&2
    exit 2
fi
emit_json > "$tmpjson"
echo
echo "ns/op vs $baseline (threshold: +25%)"
awk '
function num(line, key,    s) {
    if (match(line, "\"" key "\": [0-9.eE+-]+")) {
        s = substr(line, RSTART, RLENGTH)
        sub(/.*: /, "", s)
        return s + 0
    }
    return -1
}
function name(line,    s) {
    if (match(line, /"name": "[^"]+"/)) {
        s = substr(line, RSTART, RLENGTH)
        sub(/^"name": "/, "", s)
        sub(/"$/, "", s)
        return s
    }
    return ""
}
NR == FNR {
    n = name($0)
    if (n != "") base[n] = num($0, "ns_per_op")
    next
}
{
    n = name($0)
    if (n == "") next
    ns = num($0, "ns_per_op")
    if (n in base && base[n] > 0) {
        delta = (ns / base[n] - 1) * 100
        printf "  %-55s %12.1f -> %12.1f  (%+6.1f%%)\n", n, base[n], ns, delta
        if (delta > 25) { bad = bad "\n    " n; fail = 1 }
    } else {
        printf "  %-55s %12s -> %12.1f  (new)\n", n, "-", ns
    }
}
END {
    if (fail) {
        printf "\nFAIL: >25%% ns/op regression vs baseline:%s\n", bad
        exit 1
    }
    printf "\nOK: no tracked benchmark regressed more than 25%% ns/op\n"
}' "$baseline" "$tmpjson"

# Same-run rule: the device-physics plane must stay within 5% of the
# instrumented report path. Both benches come from THIS run (not the
# baseline), so machine speed cancels out and the gate measures only the
# physics increment — lazy pack advance, event consumes, skew gate.
echo
echo "physics overhead vs instrumented report path (threshold: +5%, same run)"
awk '
function num(line, key,    s) {
    if (match(line, "\"" key "\": [0-9.eE+-]+")) {
        s = substr(line, RSTART, RLENGTH)
        sub(/.*: /, "", s)
        return s + 0
    }
    return -1
}
/"name": "BenchmarkInstrumentedReportPath"/ { instr = num($0, "ns_per_op") }
/"name": "BenchmarkReportPathPhysics"/     { phys = num($0, "ns_per_op") }
END {
    if (instr <= 0 || phys <= 0) {
        printf "FAIL: missing bench (instrumented=%s, physics=%s)\n", instr, phys
        exit 1
    }
    delta = (phys / instr - 1) * 100
    printf "  instrumented %.1f ns/op, physics %.1f ns/op (%+.1f%%)\n", instr, phys, delta
    if (delta > 5) {
        printf "\nFAIL: physics report path is more than 5%% over the instrumented path\n"
        exit 1
    }
    printf "\nOK: physics overhead within 5%% of the instrumented path\n"
}' "$tmpjson"

# Same-run rule: HMAC message authentication must stay within 10% of the
# unauthenticated decide path. Both benches come from THIS run, so machine
# speed cancels out and the gate measures only the auth increment — one
# sign per send plus one verify per unverified delivery (measured ~6%).
echo
echo "consensus auth overhead vs unauthenticated decide (threshold: +10%, same run)"
awk '
function num(line, key,    s) {
    if (match(line, "\"" key "\": [0-9.eE+-]+")) {
        s = substr(line, RSTART, RLENGTH)
        sub(/.*: /, "", s)
        return s + 0
    }
    return -1
}
/"name": "BenchmarkConsensusDecide"/       { auth = num($0, "ns_per_op") }
/"name": "BenchmarkConsensusDecideNoAuth"/ { plain = num($0, "ns_per_op") }
END {
    if (auth <= 0 || plain <= 0) {
        printf "FAIL: missing bench (auth=%s, noauth=%s)\n", auth, plain
        exit 1
    }
    delta = (auth / plain - 1) * 100
    printf "  noauth %.1f ns/op, auth %.1f ns/op (%+.1f%%)\n", plain, auth, delta
    if (delta > 10) {
        printf "\nFAIL: authenticated decide is more than 10%% over the unauthenticated path\n"
        exit 1
    }
    printf "\nOK: auth overhead within 10%% of the unauthenticated decide path\n"
}' "$tmpjson"
