#!/usr/bin/env bash
# CI gate for the XFT reproduction. Everything runs offline against the
# vendored in-workspace `bytes` shim; there are no crates.io dependencies.
#
#   tier-1 : cargo build --release && cargo test -q
#   extras : all bin/example/test targets must compile, docs must build
#            without warnings (the crates carry #![warn(missing_docs)]).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> non-test lines per crate (scripts/loc.sh; reported, not gated)"
scripts/loc.sh
# The counting rule itself is gated on a fixture of test-only items laid
# out as rustfmt writes them; its non-test lines are marked (see its header).
fixture=scripts/loc-fixture/crates/core/src/replica/cases.rs
want=$(grep -cE '^(//.*)?$|// counted$' "$fixture")
got=$(scripts/loc.sh scripts/loc-fixture | awk '$1 == "total" { print $2 }')
if [ "$got" != "$want" ]; then
    echo "scripts/loc.sh counts $got non-test lines in $fixture, expected $want" >&2
    exit 1
fi

echo "==> formatting is canonical (cargo fmt --check)"
cargo fmt --all -- --check

echo "==> tier-1: release build"
cargo build --release --offline

echo "==> tier-1: tests"
cargo test -q --offline

echo "==> bins, examples and tests compile"
cargo build --offline --all-targets

echo "==> clippy stays warning-clean"
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "==> docs stay warning-clean"
doc_log=$(cargo doc --offline --no-deps 2>&1) || {
    echo "$doc_log"
    exit 1
}
if grep -q "^warning" <<<"$doc_log"; then
    echo "$doc_log"
    echo "cargo doc emitted warnings" >&2
    exit 1
fi

echo "==> the repo's benchmark still builds and passes its own checks (benchmark/check.sh, ~45 s)"
# fmt + clippy + unit tests of the benchmark package and a smoke run of all
# four workloads, untraced and traced, with every correctness check on: a
# product change that breaks them fails here, not at the next measurement.
benchmark/check.sh

echo "==> checkpoint capture at 4.35 MB matches the from-scratch encoding and refreshes in place (checkpoint_cost --rounds 3)"
# The coordination service keeps its last two snapshot encodings between
# captures; debug builds compare each with a from-scratch encoding on every
# call, and this is the release-build check at the benchmark's state size:
# each round asserts the captured image's commitment equals that of a
# memo-less capture of the from-scratch encoding. The `128 keys dirty` row
# is a replica's steady state, and its application bytes must be refreshed
# in place (not copied) in all but the first two captures: an image held
# longer than the previous checkpoint's brings the 4.35 MB copy back.
rounds=3
cost=$(cargo run --offline --release -q -p xft-bench --bin checkpoint_cost -- --rounds "$rounds")
in_place=$(awk '/^128 keys dirty +[0-9]/ { print $(NF - 2) }' <<<"$cost")
if [ -z "$in_place" ] || [ "$in_place" -lt $((rounds - 2)) ]; then
    echo "$cost"
    echo "128 keys dirty: application bytes refreshed in place in ${in_place:-no} of $rounds captures, expected at least $((rounds - 2))" >&2
    exit 1
fi

echo "==> quickstart example exits 0"
cargo run --offline --release --example quickstart >/dev/null

echo "==> fault_injection example exits 0: fault detection flags the data-loss primary and no correct replica"
cargo run --offline --release --example fault_injection >/dev/null

echo "==> xpaxos-server rejects the removed synchronous-fsync flag as unknown"
# --data-dir always runs the overlapped per-record fsync, so a script still
# asking for the old synchronous mode must fail fast (exit 2) instead of
# starting a replica with different durability (which --run-secs 1 would
# let exit 0).
status=0
target/release/xpaxos-server --id 0 --t 1 --clients 1 \
    --addrs 127.0.0.1:0,127.0.0.1:0,127.0.0.1:0,127.0.0.1:0 \
    --fsync-overlap 0 --run-secs 1 2>/dev/null || status=$?
[ "$status" = 2 ] || { echo "expected exit 2, got $status" >&2; exit 1; }

echo "==> loopback TCP smoke: 3 xpaxos-servers + 1 xpaxos-client, then the idle servers must each use < 2 % of a core"
# Ephemeral-ish port block; one retry with a different base absorbs the rare
# collision with another process.
#
# The idle-cost part is what the benchmark's net.idle_cpu_cores probe
# measures, without a benchmark run: a transport thread that polls instead of
# blocking shows up here. Once the client has committed and exited, the
# servers settle for 1 s, then each one's utime + stime (/proc/<pid>/stat
# fields 14 and 15, clock ticks) is read twice, 2 s apart.
cpu_ticks() {
    # The comm field may hold spaces: count fields from the closing paren.
    sed 's/.*) //' "/proc/$1/stat" | awk '{ print $12 + $13 }'
}
smoke() {
    local base=$1 ops=50
    local addrs="127.0.0.1:${base},127.0.0.1:$((base + 1)),127.0.0.1:$((base + 2)),127.0.0.1:$((base + 3))"
    local flags=(--t 1 --clients 1 --addrs "$addrs" --delta-ms 200 --retransmit-ms 1000)
    local pids=()
    for id in 0 1 2; do
        target/release/xpaxos-server --id "$id" "${flags[@]}" --run-secs 120 &
        pids+=($!)
    done
    local ok=0
    if target/release/xpaxos-client --id 0 "${flags[@]}" --ops "$ops" --payload 256 --timeout-secs 60; then
        ok=1
        sleep 1
        local before=() hz pid used_ms
        hz=$(getconf CLK_TCK)
        for pid in "${pids[@]}"; do before+=("$(cpu_ticks "$pid")"); done
        sleep 2
        for id in 0 1 2; do
            used_ms=$(( ($(cpu_ticks "${pids[id]}") - before[id]) * 1000 / hz ))
            echo "idle-cost smoke: server $id used ${used_ms} ms of CPU in 2 s (bar: 40)"
            if [ "$used_ms" -gt 40 ]; then
                ok=0
            fi
        done
    fi
    kill "${pids[@]}" 2>/dev/null || true
    wait "${pids[@]}" 2>/dev/null || true
    [ "$ok" = 1 ]
}
smoke $((20000 + RANDOM % 20000)) || smoke $((20000 + RANDOM % 20000))

echo "==> pipelined loopback smoke: 3 xpaxos-servers + 4 windowed clients"
smoke_pipelined() {
    local base=$1 ops=50
    local addrs="127.0.0.1:${base},127.0.0.1:$((base + 1)),127.0.0.1:$((base + 2))"
    addrs="${addrs},127.0.0.1:$((base + 3)),127.0.0.1:$((base + 4))"
    addrs="${addrs},127.0.0.1:$((base + 5)),127.0.0.1:$((base + 6))"
    local flags=(--t 1 --clients 4 --addrs "$addrs" --delta-ms 200 --retransmit-ms 1000)
    local pids=()
    for id in 0 1 2; do
        target/release/xpaxos-server --id "$id" "${flags[@]}" --run-secs 120 &
        pids+=($!)
    done
    local ok=0
    # No --id: the client binary spawns all 4 windowed workers itself.
    if target/release/xpaxos-client "${flags[@]}" --window 8 --ops "$ops" --payload 256 \
        --timeout-secs 60; then
        ok=1
    fi
    kill "${pids[@]}" 2>/dev/null || true
    wait "${pids[@]}" 2>/dev/null || true
    [ "$ok" = 1 ]
}
smoke_pipelined $((20000 + RANDOM % 20000)) || smoke_pipelined $((20000 + RANDOM % 20000))

echo "==> kill -9 recovery smoke: restart a server from its --data-dir"
# 3 servers on durable storage; client 0 commits; replica 1 is killed with
# SIGKILL and restarted from its data directory; it must log a recovery line
# and client 1 must then commit against the healed cluster. The short
# checkpoint interval makes the rejoin exercise snapshots + state transfer.
# Like every durable smoke, these servers run the production storage, so the
# SIGKILL lands on the overlapped WAL fsync and the background snapshot
# installer.
smoke_recovery() {
    local base=$1 datadir
    datadir=$(mktemp -d)
    local addrs="127.0.0.1:${base},127.0.0.1:$((base + 1)),127.0.0.1:$((base + 2))"
    addrs="${addrs},127.0.0.1:$((base + 3)),127.0.0.1:$((base + 4))"
    local flags=(--t 1 --clients 2 --addrs "$addrs" --delta-ms 200 --retransmit-ms 1000)
    local server_flags=(--checkpoint-interval 16)
    local pids=()
    for id in 0 1 2; do
        target/release/xpaxos-server --id "$id" "${flags[@]}" "${server_flags[@]}" \
            --data-dir "$datadir/r$id" --run-secs 180 &
        pids+=($!)
    done
    local ok=0
    if target/release/xpaxos-client --id 0 "${flags[@]}" --ops 40 --payload 256 --timeout-secs 60; then
        kill -9 "${pids[1]}" 2>/dev/null || true
        wait "${pids[1]}" 2>/dev/null || true
        target/release/xpaxos-server --id 1 "${flags[@]}" "${server_flags[@]}" \
            --data-dir "$datadir/r1" --run-secs 180 >"$datadir/r1.log" 2>&1 &
        pids[1]=$!
        if target/release/xpaxos-client --id 1 "${flags[@]}" --ops 40 --payload 256 --timeout-secs 60 \
            && grep -q "recovered from" "$datadir/r1.log"; then
            ok=1
        fi
    fi
    kill "${pids[@]}" 2>/dev/null || true
    wait "${pids[@]}" 2>/dev/null || true
    rm -rf "$datadir"
    [ "$ok" = 1 ]
}
smoke_recovery $((20000 + RANDOM % 20000)) || smoke_recovery $((20000 + RANDOM % 20000))

echo "==> telemetry smoke: scrape /metrics + /healthz + /evidence across commits, fsyncs and a view change"
# 3 servers with --metrics-addr (durable, so WAL fsyncs happen) and
# --evidence-dir; client 0 commits, the view-0 primary is SIGKILLed to force
# a view change, client 1 commits against the healed cluster, then replica
# 1's scrape endpoint must report nonzero protocol, WAL and view-change
# series, the synchrony fault-vector gauges, and a non-empty evidence chain,
# and every series it serves must be listed in README's series table.
http_get() { # host port path — curl when available, bash /dev/tcp otherwise
    if command -v curl >/dev/null 2>&1; then
        curl -sf --max-time 5 "http://$1:$2$3"
    else
        exec 3<>"/dev/tcp/$1/$2" || return 1
        printf 'GET %s HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n' "$3" >&3
        cat <&3
        exec 3<&- 3>&-
    fi
}
# Reads a /metrics scrape on stdin and prints every series name on it that
# README's `xft_*` series table does not list. Labels and the histogram
# `_bucket`/`_sum`/`_count` suffixes are stripped first.
undocumented_series() {
    comm -23 \
        <(grep -E '^xft_' | sed -E 's/[{ ].*//; s/_(bucket|sum|count)$//' | sort -u) \
        <(grep -oE '^ *\| `xft_[a-z_]+`' README.md | tr -d '|` ' | sort -u)
}
smoke_metrics() {
    local base=$1 mbase=$(($1 + 5)) datadir
    datadir=$(mktemp -d)
    local addrs="127.0.0.1:${base},127.0.0.1:$((base + 1)),127.0.0.1:$((base + 2))"
    addrs="${addrs},127.0.0.1:$((base + 3)),127.0.0.1:$((base + 4))"
    local flags=(--t 1 --clients 2 --addrs "$addrs" --delta-ms 200 --retransmit-ms 1000)
    local server_flags=(--checkpoint-interval 16)
    local pids=()
    for id in 0 1 2; do
        target/release/xpaxos-server --id "$id" "${flags[@]}" "${server_flags[@]}" \
            --data-dir "$datadir/r$id" --metrics-addr "127.0.0.1:$((mbase + id))" \
            --evidence-dir "$datadir/ev$id" --run-secs 180 2>/dev/null &
        pids+=($!)
    done
    local ok=0
    if target/release/xpaxos-client --id 0 "${flags[@]}" --ops 40 --payload 256 --timeout-secs 60; then
        # Kill the view-0 primary: the survivors must suspect, change view and
        # keep committing — all of it visible on replica 1's scrape endpoint.
        kill -9 "${pids[0]}" 2>/dev/null || true
        wait "${pids[0]}" 2>/dev/null || true
        if target/release/xpaxos-client --id 1 "${flags[@]}" --ops 40 --payload 256 --timeout-secs 60; then
            local scrape health evidence undocumented
            scrape=$(http_get 127.0.0.1 "$((mbase + 1))" /metrics)
            undocumented=$(undocumented_series <<<"$scrape")
            health=$(http_get 127.0.0.1 "$((mbase + 1))" /healthz)
            evidence=$(http_get 127.0.0.1 "$((mbase + 1))" /evidence)
            if grep -Eq '^xft_commits_total [1-9]' <<<"$scrape" \
                && grep -Eq '^xft_wal_fsync_seconds_count [1-9]' <<<"$scrape" \
                && grep -Eq '^xft_view_changes_total [1-9]' <<<"$scrape" \
                && grep -Eq '^xft_view_changes_started_total [1-9]' <<<"$scrape" \
                && grep -Eq '^xft_est_crash_faults [0-9]' <<<"$scrape" \
                && grep -Eq '^xft_last_heard_age_seconds\{' <<<"$scrape" \
                && grep -q 'synchrony estimate' <<<"$health" \
                && grep -q '# evidence chain' <<<"$evidence" \
                && grep -Eq 'seq=[0-9]+ .* (PREPARE|COMMIT)' <<<"$evidence" \
                && [ -z "$undocumented" ]; then
                ok=1
            else
                echo "scrape missed expected series:" >&2
                grep -E '^xft_(commits_total|wal_fsync_seconds_count|view_changes(_started)?_total|est_crash_faults)' \
                    <<<"$scrape" >&2 || true
                [ -z "$undocumented" ] || echo "series missing from README's table: $undocumented" >&2
                head -3 <<<"$evidence" >&2 || true
            fi
        fi
    fi
    kill "${pids[@]}" 2>/dev/null || true
    wait "${pids[@]}" 2>/dev/null || true
    rm -rf "$datadir"
    [ "$ok" = 1 ]
}
smoke_metrics $((20000 + RANDOM % 20000)) || smoke_metrics $((20000 + RANDOM % 20000))

echo "==> chunked rejoin smoke: kill -9 a replica, grow the store, rejoin via bounded Merkle chunks"
# The kvstore grows far past one 1 KiB state chunk; passive replica 2 is
# SIGKILLed and misses several checkpoint intervals, so the actives have
# truncated the history it needs and a restart can only catch up through the
# chunked state-transfer protocol. The restarted replica's scrape must show a
# verified multi-chunk transfer adopted with no chunk rejected and no bad
# reassembled snapshot (correct peers' chunks must all verify; an absent
# counter is 0), and the serving replicas' peak response frame must stay
# O(chunk_bytes) — 1 KiB data + envelope/Merkle-path/proof overhead, capped
# at 3072 B — however large the snapshot has grown.
smoke_chunked() {
    local base=$1 mbase=$(($1 + 7)) datadir
    datadir=$(mktemp -d)
    local addrs="127.0.0.1:${base},127.0.0.1:$((base + 1)),127.0.0.1:$((base + 2))"
    addrs="${addrs},127.0.0.1:$((base + 3)),127.0.0.1:$((base + 4)),127.0.0.1:$((base + 5))"
    local flags=(--t 1 --clients 3 --addrs "$addrs" --delta-ms 200 --retransmit-ms 1000)
    local server_flags=(--checkpoint-interval 16 --state-chunk-bytes 1024 --state-fetch-window 2)
    local pids=()
    for id in 0 1 2; do
        target/release/xpaxos-server --id "$id" "${flags[@]}" "${server_flags[@]}" \
            --data-dir "$datadir/r$id" --metrics-addr "127.0.0.1:$((mbase + id))" \
            --run-secs 240 2>/dev/null &
        pids+=($!)
    done
    local ok=0
    # Phase 1: grow the store well past one chunk window (40 x 1 KiB values).
    if target/release/xpaxos-client --id 0 "${flags[@]}" --ops 40 --payload 1024 --timeout-secs 60; then
        # Phase 2: kill the passive; the survivors seal checkpoints it misses.
        kill -9 "${pids[2]}" 2>/dev/null || true
        wait "${pids[2]}" 2>/dev/null || true
        if target/release/xpaxos-client --id 1 "${flags[@]}" --ops 40 --payload 1024 --timeout-secs 60; then
            # Phase 3: restart replica 2 from its WAL; fresh traffic announces
            # sealed checkpoints it can only reach via chunked state transfer.
            target/release/xpaxos-server --id 2 "${flags[@]}" "${server_flags[@]}" \
                --data-dir "$datadir/r2" --metrics-addr "127.0.0.1:$((mbase + 2))" \
                --run-secs 240 2>/dev/null &
            pids[2]=$!
            # Let the restarted listener come up and the peers' reconnect
            # backoff expire before the phase-3 burst: checkpoint
            # announcements are sent once at seal time, so frames dropped
            # while the listener is still binding are never re-offered.
            sleep 2
            if target/release/xpaxos-client --id 2 "${flags[@]}" --ops 40 --payload 1024 --timeout-secs 60; then
                local scrape adopted="" verified="" tries=0
                while [ "$tries" -lt 45 ]; do
                    scrape=$(http_get 127.0.0.1 "$((mbase + 2))" /metrics || true)
                    adopted=$(sed -n 's/^xft_state_transfers_adopted_total \([0-9]*\).*/\1/p' <<<"$scrape")
                    verified=$(sed -n 's/^xft_state_chunks_verified_total \([0-9]*\).*/\1/p' <<<"$scrape")
                    if [ "${adopted:-0}" -ge 1 ] && [ "${verified:-0}" -ge 2 ]; then
                        break
                    fi
                    tries=$((tries + 1))
                    sleep 1
                done
                local rejected bad
                rejected=$(sed -n 's/^xft_state_chunks_rejected_total \([0-9]*\).*/\1/p' <<<"$scrape")
                bad=$(sed -n 's/^xft_state_transfer_bad_snapshot_total \([0-9]*\).*/\1/p' <<<"$scrape")
                local peak=0 p
                for peer in 0 1; do
                    p=$(http_get 127.0.0.1 "$((mbase + peer))" /metrics 2>/dev/null \
                        | sed -n 's/^xft_state_chunk_frame_bytes_max \([0-9]*\).*/\1/p')
                    if [ -n "$p" ] && [ "$p" -gt "$peak" ]; then
                        peak=$p
                    fi
                done
                if [ "${adopted:-0}" -ge 1 ] && [ "${verified:-0}" -ge 2 ] \
                    && [ "${rejected:-0}" -eq 0 ] && [ "${bad:-0}" -eq 0 ] \
                    && [ "$peak" -gt 0 ] && [ "$peak" -le 3072 ]; then
                    echo "chunked rejoin: adopted=$adopted verified=$verified rejected=0 bad_snapshot=0" \
                        "peak_frame=${peak}B (cap 3072)"
                    ok=1
                else
                    echo "chunked rejoin missed its gates:" \
                        "adopted=${adopted:-0} verified=${verified:-0} rejected=${rejected:-0}" \
                        "bad_snapshot=${bad:-0} peak_frame=${peak}B" >&2
                fi
            fi
        fi
    fi
    kill "${pids[@]}" 2>/dev/null || true
    wait "${pids[@]}" 2>/dev/null || true
    rm -rf "$datadir"
    [ "$ok" = 1 ]
}
smoke_chunked $((20000 + RANDOM % 20000)) || smoke_chunked $((20000 + RANDOM % 20000))

echo "==> chaos smoke: 200 in-budget seeds, fixed base seed, zero violations allowed"
# Any non-linearizable verdict fails the build and prints the shrunk minimal
# FaultScript reproducer. The window/drain are trimmed to keep the smoke
# time-budgeted (~1 min); the full-length sweep is `chaos-explorer --seeds 1000`.
# Each of the four smokes' combined fingerprint is compared with the value
# pinned here: simulated behaviour that moves fails the build. A change that
# moves a fingerprint on purpose updates its pin in the same commit and says
# why in CHANGES.md.
check_fingerprint() { # label pinned log
    local got
    got=$(grep -o 'combined fingerprint 0x[0-9a-f]*' "$3" | grep -o '0x[0-9a-f]*$' || true)
    echo "chaos smoke $1 combined fingerprint ${got:-none} (pinned $2)"
    [ "$got" = "$2" ] || { echo "chaos smoke $1: fingerprint moved from the pin" >&2; exit 1; }
}
chaos_log=$(mktemp)
target/release/chaos-explorer --seeds 200 --base-seed 1 --window-secs 5 --drain-secs 14 \
    | tee "$chaos_log"
check_fingerprint "t=1" 0xa454aca9f6542f7d "$chaos_log"

echo "==> chaos smoke at t = 2: 200 in-budget seeds on the PREPARE / COMMIT path, zero violations allowed"
# The t = 1 smoke exercises only the COMMIT-CARRY fast path; this one pins
# the general path (n = 5) the same way, and checks its fingerprint too.
target/release/chaos-explorer --t 2 --seeds 200 --base-seed 1 --window-secs 5 --drain-secs 14 \
    | tee "$chaos_log"
check_fingerprint "t=2" 0x16bf323d9368078d "$chaos_log"

echo "==> chaos smoke with fault detection: 200 in-budget seeds at t = 1 and t = 2, zero violations allowed"
# The same two sweeps with the replicas running fault detection (paper §4.4:
# prepare logs in VIEW-CHANGE messages and the VC-CONFIRM round), a path the
# smokes above never reach.
for pin in 1:0x32c2b3196075475b 2:0x3736cb96d82a5066; do
    t=${pin%%:*}
    target/release/chaos-explorer --t "$t" --fault-detection true --seeds 200 --base-seed 1 \
        --window-secs 5 --drain-secs 14 | tee "$chaos_log"
    check_fingerprint "fd t=$t" "${pin#*:}" "$chaos_log"
done
rm -f "$chaos_log"

echo "==> chaos demo: a deliberately over-budget run must be caught, shrunk and flight-recorded"
recorder_dir=$(mktemp -d)
target/release/chaos-explorer --mode demo --window-secs 5 --drain-secs 14 \
    --recorder-dump "$recorder_dir"
# The shrunk reproducer must come with a non-empty flight-recorder post-mortem.
dump_file=$(ls "$recorder_dir"/flight-recorder-seed-*.txt 2>/dev/null | head -1)
[ -n "$dump_file" ] || { echo "no flight-recorder dump written" >&2; exit 1; }
grep -q "flight recorder dump" "$dump_file"
rm -rf "$recorder_dir"

echo "==> chaos beyond-budget audit gate: 200 seeds, every violating schedule audited, no false accusations"
# The over-budget sweep must catch at least one violation, and the
# accountability gate inside `--mode beyond` re-audits every violating seed
# against its injected fault schedule — one accusation of an untouched
# replica fails the build ("no false accusations", pinned at 200 seeds).
# The sweep's combined fingerprint and the gate's verdict (violating seeds,
# seeds with proofs) are pinned too, so an auditor change that moves a
# verdict fails here.
target/release/chaos-explorer --mode beyond --seeds 200 --base-seed 1 \
    --window-secs 5 --drain-secs 14 | tee /tmp/xft-beyond-audit.log
check_fingerprint "beyond t=1" 0x9d4d9a70be7a711b /tmp/xft-beyond-audit.log
grep -Eq "audit gate: 9 violating seeds re-audited in [0-9.]+s — 0 with proofs of culpability, 0 false accusations" \
    /tmp/xft-beyond-audit.log ||
    { echo "beyond-budget audit verdict moved from the pin" >&2; exit 1; }
rm -f /tmp/xft-beyond-audit.log

echo "==> accountability smoke: equivocating replica pinned by a proof that verifies offline"
# Deterministic single-equivocator run (view-0 primary wiped mid-run): the
# auditor must emit at least one proof of culpability naming exactly that
# replica, the bundle lands on disk, and xft-audit must round-trip it —
# decode, re-verify every signature, and report the same culprit set.
proof_dir=$(mktemp -d)
target/release/chaos-explorer --mode audit --window-secs 5 --drain-secs 14 \
    --proof-dump "$proof_dir"
proof_file=$(ls "$proof_dir"/proof-seed-*.bin 2>/dev/null | head -1)
[ -n "$proof_file" ] || { echo "no proof bundle written" >&2; exit 1; }
target/release/xft-audit --verify "$proof_file" | tee /tmp/xft-audit.log
grep -q "culprits: \[0\]" /tmp/xft-audit.log
rm -rf "$proof_dir" /tmp/xft-audit.log

echo "CI green ✓"
