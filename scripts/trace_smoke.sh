#!/bin/sh
# End-to-end smoke test of distributed request tracing: boot a 3-node
# cluster with span rings and obs listeners armed, gate startup on
# /healthz, drive a traced load, reassemble the printed slowest trace
# across every node's /spans ring with `lrukcluster trace`, check the
# /metrics histograms carry trace-id exemplars, run a traced rebalance
# and reassemble the handoff's trace too, then drain cleanly.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid0=""
pid1=""
pid2=""
cleanup() {
    for p in "$pid0" "$pid1" "$pid2"; do
        if [ -n "$p" ] && kill -0 "$p" 2>/dev/null; then
            kill -KILL "$p" 2>/dev/null || true
        fi
    done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "== build lrukd + lrukload + lrukcluster"
go build -o "$tmp/lrukd" ./cmd/lrukd
go build -o "$tmp/lrukload" ./cmd/lrukload
go build -o "$tmp/lrukcluster" ./cmd/lrukcluster

# Fixed ports up front (every member bootstraps the same epoch-1 view
# from the spec); a PID-derived base keeps concurrent runs apart. Each
# node gets a second port for its obs listener. The base stays below the
# kernel's ephemeral range (32768 up) so a client socket left by an
# earlier smoke cannot hold one of them.
base=$((20000 + $$ % 12000))
p0=$base
p1=$((base + 1))
p2=$((base + 2))
o0=$((base + 3))
o1=$((base + 4))
o2=$((base + 5))
spec3="n0=127.0.0.1:$p0,n1=127.0.0.1:$p1,n2=127.0.0.1:$p2"
spec2="n0=127.0.0.1:$p0,n1=127.0.0.1:$p1"
obs3="n0=127.0.0.1:$o0,n1=127.0.0.1:$o1,n2=127.0.0.1:$o2"
obs2="n0=127.0.0.1:$o0,n1=127.0.0.1:$o1"
keys=2000

echo "== start 3 traced lrukd nodes on $spec3"
for n in 0 1 2; do
    eval "p=\$p$n"
    eval "o=\$o$n"
    # The ring must outlive the run: every span of the load's slowest
    # trace has to still be resident when the assembler asks, so the ring
    # is sized well above the run's expected span volume. A small frame
    # count forces real misses, giving the waterfall disk spans.
    "$tmp/lrukd" -addr "127.0.0.1:$p" -node-id "n$n" -cluster "$spec3" \
        -customers $keys -frames 128 \
        -obs-addr "127.0.0.1:$o" -trace-spans 16384 -trace-sample 1 \
        -trace-slow 250ms >"$tmp/n$n.log" 2>&1 &
    eval "pid$n=\$!"
done

echo "== wait for readiness via /healthz"
for n in 0 1 2; do
    eval "pid=\$pid$n"
    eval "o=\$o$n"
    i=0
    until curl -fsS "http://127.0.0.1:$o/healthz" >"$tmp/health$n.json" 2>/dev/null; do
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "node n$n died during startup:"
            cat "$tmp/n$n.log"
            exit 1
        fi
        i=$((i + 1))
        if [ $i -gt 100 ]; then
            echo "node n$n never turned /healthz ready:"
            cat "$tmp/n$n.log"
            exit 1
        fi
        sleep 0.1
    done
    grep -q '"serving":true' "$tmp/health$n.json"
    grep -q "\"node\":\"n$n\"" "$tmp/health$n.json"
done
echo "   n0=$pid0 n1=$pid1 n2=$pid2"

echo "== traced load through the ring-aware client"
# Scans stay out of the mix and the trace fraction stays low on purpose:
# a traced scan sprays thousands of spans and a high fraction churns the
# rings, either of which can overwrite the slowest trace's spans before
# the assembler reads them. ~2% of ~15k ops is a few thousand spans
# total, far under the per-node ring capacity.
"$tmp/lrukload" -cluster "$spec3" -clients 4 -duration 2s -keys $keys \
    -get 95 -update 5 -scan 0 -trace-sample 0.02 | tee "$tmp/load.log"
trace=$(sed -n 's/^lrukload: slowest trace=\([0-9a-f]\{16\}\) .*/\1/p' "$tmp/load.log")
if [ -z "$trace" ]; then
    echo "load run printed no slowest-trace line"
    exit 1
fi

echo "== reassemble trace $trace across the cluster"
"$tmp/lrukcluster" trace -obs "$obs3" "$trace" | tee "$tmp/trace.log"
summary=$(grep "lrukcluster: trace $trace " "$tmp/trace.log")
case "$summary" in
*" nest_violations=0") ;;
*)
    echo "trace summary reports nest violations: $summary"
    exit 1
    ;;
esac
case "$summary" in
*" spans=0 "*)
    echo "trace reassembled with no spans: $summary"
    exit 1
    ;;
esac
grep -q "\[n.\] request" "$tmp/trace.log"
grep -q "queue_wait" "$tmp/trace.log"

echo "== /metrics exemplars link latency buckets to trace ids"
found=0
for n in 0 1 2; do
    eval "o=\$o$n"
    if curl -fsS "http://127.0.0.1:$o/metrics" | grep -q "_exemplar{.*trace_id=\"[0-9a-f]\{16\}\""; then
        found=1
    fi
done
if [ "$found" -ne 1 ]; then
    echo "no node's /metrics carried a trace-id exemplar"
    exit 1
fi

echo "== traced rebalance: remove n2"
"$tmp/lrukcluster" remove -cluster "$spec3" -node n2 | tee "$tmp/remove.log"
grep -q "remove complete" "$tmp/remove.log"
rbtrace=$(sed -n 's/^lrukcluster: rebalance trace=\([0-9a-f]\{16\}\).*/\1/p' "$tmp/remove.log")
if [ -z "$rbtrace" ]; then
    echo "rebalance printed no trace id"
    exit 1
fi
grep -q "lrukcluster: phase flip_sources" "$tmp/remove.log"
grep -q "lrukcluster: phase copy" "$tmp/remove.log"

echo "== reassemble the rebalance trace $rbtrace"
# The coordinator's admin requests (ViewSet/Flush/RangeRead/RangeWrite)
# ran under one trace; the nodes' request spans must cover at least the
# two surviving nodes plus the removed source.
"$tmp/lrukcluster" trace -obs "$obs3" "$rbtrace" | tee "$tmp/rbtrace.log"
rbsummary=$(grep "lrukcluster: trace $rbtrace " "$tmp/rbtrace.log")
nodes=$(printf '%s\n' "$rbsummary" | sed -n 's/.* nodes=\([0-9]*\) .*/\1/p')
if [ -z "$nodes" ] || [ "$nodes" -lt 2 ]; then
    echo "rebalance trace crossed $nodes nodes, want >=2: $rbsummary"
    exit 1
fi
case "$rbsummary" in
*" nest_violations=0") ;;
*)
    echo "rebalance trace reports nest violations: $rbsummary"
    exit 1
    ;;
esac

echo "== /healthz flips to 503 on drain (SIGTERM n2)"
kill -TERM "$pid2"
status=0
wait "$pid2" || status=$?
pid2=""
if [ "$status" -ne 0 ]; then
    echo "n2 exited $status:"
    cat "$tmp/n2.log"
    exit 1
fi
grep -q "lrukd: clean shutdown" "$tmp/n2.log"
if curl -fsS "http://127.0.0.1:$o2/healthz" >/dev/null 2>&1; then
    echo "n2's /healthz still answers 200 after shutdown"
    exit 1
fi

echo "== graceful shutdown of the survivors"
for n in 0 1; do
    eval "pid=\$pid$n"
    kill -TERM "$pid"
    status=0
    wait "$pid" || status=$?
    eval "pid$n="
    if [ "$status" -ne 0 ]; then
        echo "n$n exited $status:"
        cat "$tmp/n$n.log"
        exit 1
    fi
    grep -q "lrukd: clean shutdown" "$tmp/n$n.log"
done
echo "trace-smoke OK"
