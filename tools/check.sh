#!/usr/bin/env bash
# Repository gate: warnings-as-errors build, full test suite, static
# analysis of the bundled netlists with `ppdtool lint`, and (when the tool
# is installed) clang-tidy over the files changed on this branch.
#
#   tools/check.sh [build-dir]
#
# Exits non-zero on the first failing stage.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-check}"

echo "== configure + build (PPD_WERROR=ON) =="
cmake -B "$build" -S "$repo" -DPPD_WERROR=ON >/dev/null
cmake --build "$build" -j "$(nproc)"

echo "== ctest =="
ctest --test-dir "$build" --output-on-failure

echo "== ppdtool lint over data/ =="
for f in "$repo"/data/*.bench; do
  echo "-- $f"
  "$build/tools/ppdtool" lint "$f"
done
# Every reject-* regression of the .bench fuzz corpus must fail the lint
# (NOT/BUF with two operands once loaded and died in evaluation).
for f in "$repo"/tests/corpus/bench/reject-*.bench; do
  if "$build/tools/ppdtool" lint "$f" >/dev/null; then
    echo "lint stage: $f unexpectedly lints clean" >&2
    exit 1
  fi
done

echo "== sta stage (interval STA + PPD3xx screen over data/) =="
# The static-analysis gate: `ppdtool sta --json` must emit well-formed JSON
# with the documented shape for every shipped netlist, and the PPD3xx lint
# family must come back clean on them — or be suppressed here with a
# rationale.
for f in "$repo"/data/*.bench; do
  echo "-- $f"
  suppress=""
  case "$(basename "$f")" in
    c432_class.bench)
      # PPD302 (unjustifiable side input) is expected on the c432-class
      # netlist: its reconvergent fanout makes many individually-slackiest
      # paths unsensitizable while the sites stay covered through sibling
      # paths — the screen itself reroutes them (see the funnel in
      # bench_fig11). Anything else in the PPD3xx family is a regression.
      suppress="--suppress=PPD302";;
  esac
  if command -v jq >/dev/null 2>&1; then
    "$build/tools/ppdtool" sta --json --bench="$f" $suppress |
      jq -e '(.netlist.gates > 0) and (.timing.critical_delay_s > 0) and
             (.slackiest_paths | length > 0) and
             (.survival.sites >= .survival.pulse_dead_sites) and
             (.lint.diagnostics |
              map(select(.code | test("^PPD3"))) | length == 0)' >/dev/null
  else
    "$build/tools/ppdtool" sta --bench="$f" $suppress >/dev/null
  fi
done
# Unknown suppress codes are hard errors on the sta path too.
if "$build/tools/ppdtool" sta --suppress=PPD999 >/dev/null 2>&1; then
  echo "sta stage: unknown --suppress code unexpectedly accepted" >&2
  exit 1
fi
# So are unchecked numbers: a negative count once wrapped through size_t
# and a nan fraction or clock was silently accepted, all exiting 0.
for bad in "atpg --paths=-1" "atpg --slack=nan" "atpg --slack=inf" \
           "sta --k=-1" "sta --clock=nan" "sta --slack-frac=nan"; do
  rc=0
  "$build/tools/ppdtool" $bad >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "sta stage: ppdtool $bad exited $rc, expected 1" >&2
    exit 1
  fi
done

echo "== observability smoke (metrics + trace JSON) =="
# A tiny coverage run must produce a valid metrics snapshot (with a
# non-empty Newton-iteration histogram and the standard meta block) and a
# well-formed Chrome trace (balanced B/E per lane).
obs_dir="$(mktemp -d)"
# The one EXIT trap. Every background process this script starts (ppdd,
# chaosproxy, a retrying ppdctl) is a job of this shell, so the shell's job
# table is the one list of them: whatever is still running when the script
# exits — a failing step under set -e included — is killed here.
cleanup() {
  local pids
  pids="$(jobs -p)"
  if [ -n "$pids" ]; then
    kill -KILL $pids 2>/dev/null || true
  fi
  rm -rf "$obs_dir"
}
trap cleanup EXIT
"$build/tools/ppdtool" --metrics="$obs_dir/metrics.json" \
  --trace="$obs_dir/trace.json" --log-level=warn \
  coverage --method=pulse --samples=4 --points=3 >/dev/null
if command -v jq >/dev/null 2>&1; then
  jq -e '.meta.seed != null and .meta.timestamp != null' \
    "$obs_dir/metrics.json" >/dev/null
  jq -e '.histograms["spice.newton.iterations"].count > 0' \
    "$obs_dir/metrics.json" >/dev/null
  jq -e '.counters["core.coverage.items"] > 0' "$obs_dir/metrics.json" >/dev/null
  jq -e '.traceEvents | length > 0' "$obs_dir/trace.json" >/dev/null
else
  echo "(jq not installed; JSON schema checks skipped)"
fi
echo "== chaos stage (coverage under deterministic fault injection) =="
# The resilience layer's contract: a sweep riddled with injected Newton
# failures still exits 0, quarantines the broken samples into valid JSON,
# and leaves a loadable checkpoint (grammar: ppd/resil/faultplan.hpp).
"$build/tools/ppdtool" coverage --method=pulse --samples=4 --points=3 \
  --fault-plan="seed=13,newton=0.35,nan=0.08" \
  --checkpoint="$obs_dir/chaos-ck.json" \
  --quarantine-json="$obs_dir/chaos-q.json" > "$obs_dir/chaos.out"
grep -q "n_quarantined" "$obs_dir/chaos.out"
if command -v jq >/dev/null 2>&1; then
  jq -e '.quarantined > 0' "$obs_dir/chaos-q.json" >/dev/null
  jq -e '.items == 12 and (.entries | length) == .quarantined' \
    "$obs_dir/chaos-q.json" >/dev/null
  jq -e '.resil_checkpoint == 1 and (.quarantine | length) > 0' \
    "$obs_dir/chaos-ck.json" >/dev/null
else
  echo "(jq not installed; chaos JSON checks skipped)"
fi
# Strict mode must restore fail-fast under the same plan.
if "$build/tools/ppdtool" coverage --method=pulse --samples=4 --points=3 \
  --strict --fault-plan="seed=13,newton=0.35,nan=0.08" \
  >/dev/null 2>&1; then
  echo "chaos stage: --strict unexpectedly succeeded under injection" >&2
  exit 1
fi

python3 - "$obs_dir/trace.json" <<'PYEOF'
import json, sys
from collections import defaultdict
events = json.load(open(sys.argv[1]))["traceEvents"]
depth = defaultdict(int)
last = {}
for e in events:
    if e["ph"] == "M":
        continue
    tid = e["tid"]
    assert e["ts"] >= last.get(tid, 0.0), f"non-monotonic ts on lane {tid}"
    last[tid] = e["ts"]
    depth[tid] += 1 if e["ph"] == "B" else -1
    assert depth[tid] >= 0, f"E without B on lane {tid}"
assert all(d == 0 for d in depth.values()), "unbalanced B/E pairs"
print(f"trace OK: {len(events)} events, {len(depth)} lanes")
PYEOF

echo "== solve-cache stage (reuse must be invisible to results) =="
# The solve cache memoizes measurements and warm-starts Newton within a
# process. Contract: a cached run's output is byte-identical to a run with
# the cache killed (PPD_CACHE=0), and the metrics snapshot shows real
# traffic — hits, misses, and warm-started operating points.
"$build/tools/ppdtool" --metrics="$obs_dir/cache-metrics.json" \
  coverage --method=pulse --samples=4 --points=3 --csv \
  > "$obs_dir/cov-cached.csv"
PPD_CACHE=0 "$build/tools/ppdtool" \
  coverage --method=pulse --samples=4 --points=3 --csv \
  > "$obs_dir/cov-cold.csv"
cmp "$obs_dir/cov-cached.csv" "$obs_dir/cov-cold.csv"
if command -v jq >/dev/null 2>&1; then
  jq -e '.counters["cache.solve.hit"] > 0 and
         .counters["cache.solve.miss"] > 0' \
    "$obs_dir/cache-metrics.json" >/dev/null
  jq -e '.counters["spice.newton.warm_start.hit"] > 0' \
    "$obs_dir/cache-metrics.json" >/dev/null
else
  echo "(jq not installed; cache metrics checks skipped)"
fi

echo "== service smoke (ppdd + ppdctl over loopback) =="
# The persistent service's contract: responses byte-identical to single-shot
# ppdtool, a scripted session streams well-formed JSON result events, and
# SIGTERM drains gracefully (exit 0, all in-flight queries finished). A
# repeated query is replayed from the solve cache: the second connection's
# body is the first one's bytes, and STATS counts the replay.
# Numeric flags are checked before binding: a port above 65535 once wrapped
# (70000 listened on 4464) and a negative count wrapped through size_t
# (--max-queue=-1 switched the window off). Both are usage errors: exit 2,
# no port file. timeout bounds a regression that would start serving.
for bad in "--port=70000" "--port=0 --max-queue=-1"; do
  rm -f "$obs_dir/bad.port"
  rc=0
  timeout 10 "$build/tools/ppdd" $bad --port-file="$obs_dir/bad.port" \
    >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ] || [ -e "$obs_dir/bad.port" ]; then
    echo "service smoke: ppdd $bad exited $rc (expected 2) or wrote a" \
      "port file" >&2
    exit 1
  fi
done
"$build/tools/ppdd" --port=0 --port-file="$obs_dir/ppdd.port" \
  --drain-grace=10 --metrics="$obs_dir/ppdd-metrics.json" \
  > "$obs_dir/ppdd.log" 2>&1 &
ppdd_pid=$!
for _ in $(seq 1 50); do
  [ -s "$obs_dir/ppdd.port" ] && break
  sleep 0.1
done
port="$(cat "$obs_dir/ppdd.port")"
"$build/tools/ppdctl" --port="$port" ping | grep -q "OK pong"
"$build/tools/ppdctl" --port="$port" query coverage \
  --method=pulse --samples=4 --points=3 --csv > "$obs_dir/cov-served.csv"
cmp "$obs_dir/cov-served.csv" "$obs_dir/cov-cached.csv"
"$build/tools/ppdctl" --port="$port" query coverage \
  --method=pulse --samples=4 --points=3 --csv > "$obs_dir/cov-replayed.csv"
cmp "$obs_dir/cov-replayed.csv" "$obs_dir/cov-served.csv"
"$build/tools/ppdctl" --port="$port" batch > "$obs_dir/batch.out" <<'BATCH'
set points 5
query transfer
set samples 4
query calibrate
stats
quit
BATCH
if command -v jq >/dev/null 2>&1; then
  # Every result event carries the observability breakdown: a server-wide
  # query id plus queue/execute/serialize timings in separate fields.
  jq -e -s '(map(select(.event == "result")) | length == 2) and
            (map(select(.event == "result")) |
             all(.status == "ok" and .exit_code == 0 and .qid > 0 and
                 .queue_s >= 0 and .execute_s > 0 and .serialize_s >= 0))' \
    "$obs_dir/batch.out" >/dev/null
  # STATS is the structured per-kind snapshot: server totals, cache block,
  # and a latency histogram per query kind.
  "$build/tools/ppdctl" --port="$port" stats |
    jq -e '.server.queries_ok >= 3 and .server.queries_error == 0 and
           .cache.entries >= 0 and
           .kinds.coverage.ok >= 2 and
           .kinds.coverage.replayed >= 1 and
           .kinds.transfer.execute_s.count >= 1' >/dev/null
  # SUBSCRIBE streams consecutive metrics frames with increasing seq and an
  # embedded stats document.
  "$build/tools/ppdctl" --port="$port" subscribe --interval=0.1 --count=2 |
    jq -e -s 'length == 2 and (.[1].seq == .[0].seq + 1) and
              all(.event == "metrics" and
                  (.stats.server.queries_ok >= 3) and
                  (.interval | has("transfer")))' >/dev/null
  # TRACE dumps the server's span ring as a Chrome trace; served queries
  # appear tagged with their qid.
  "$build/tools/ppdctl" --port="$port" trace "$obs_dir/ppdd-trace.json"
  jq -e '.traceEvents | length > 0' "$obs_dir/ppdd-trace.json" >/dev/null
  jq -e '[.traceEvents[] | select(.args.qid? != null)] | length > 0' \
    "$obs_dir/ppdd-trace.json" >/dev/null
else
  echo "(jq not installed; service JSON checks skipped)"
fi
kill -TERM "$ppdd_pid"
wait "$ppdd_pid"  # graceful drain: exit 0 or set -e fails the stage
grep -q "ppdd stopped" "$obs_dir/ppdd.log"
# The drain flushed the server's metrics snapshot to disk.
if command -v jq >/dev/null 2>&1; then
  jq -e '.counters["net.queries.ok"] >= 3' \
    "$obs_dir/ppdd-metrics.json" >/dev/null
  # With the cache killed (PPD_CACHE=0) the same repeat runs in full.
  PPD_CACHE=0 "$build/tools/ppdd" --port=0 --port-file="$obs_dir/nocache.port" \
    --drain-grace=10 > "$obs_dir/nocache-ppdd.log" 2>&1 &
  nocache_pid=$!
  for _ in $(seq 1 50); do
    [ -s "$obs_dir/nocache.port" ] && break
    sleep 0.1
  done
  nocache_port="$(cat "$obs_dir/nocache.port")"
  for _ in 1 2; do
    "$build/tools/ppdctl" --port="$nocache_port" query coverage \
      --method=pulse --samples=4 --points=3 --csv |
      cmp - "$obs_dir/cov-served.csv"
  done
  "$build/tools/ppdctl" --port="$nocache_port" stats |
    jq -e '.kinds.coverage.ok == 2 and .kinds.coverage.replayed == 0' \
    >/dev/null
  kill -TERM "$nocache_pid"
  wait "$nocache_pid"
fi

echo "== service chaos stage (fault-injecting proxy over the wire) =="
# The hardening contract under socket chaos: test_chaos drives the service
# through ppd::net::ChaosProxy across ten deterministic FaultPlan seeds —
# partial writes, mid-frame resets, slow-loris stalls, delayed forwards —
# asserting no deadlocks, no leaked sessions, and no malformed frames.
"$build/tests/test_chaos" --gtest_brief=1
# End-to-end through the standalone proxy binary: a real ppdctl query
# crosses a chaotic chaosproxy (dribbled writes + delays; no resets, so a
# single attempt suffices) and must come back byte-identical.
"$build/tools/ppdd" --port=0 --port-file="$obs_dir/chaos-ppdd.port" \
  --drain-grace=10 > "$obs_dir/chaos-ppdd.log" 2>&1 &
chaos_ppdd_pid=$!
for _ in $(seq 1 50); do
  [ -s "$obs_dir/chaos-ppdd.port" ] && break
  sleep 0.1
done
"$build/tools/chaosproxy" --upstream="$(cat "$obs_dir/chaos-ppdd.port")" \
  --port=0 --port-file="$obs_dir/chaos-proxy.port" \
  --faults="seed=11,sock-partial=0.4,sock-delay=0.3:0.002" \
  > "$obs_dir/chaosproxy.log" 2>&1 &
chaosproxy_pid=$!
for _ in $(seq 1 50); do
  [ -s "$obs_dir/chaos-proxy.port" ] && break
  sleep 0.1
done
proxy_port="$(cat "$obs_dir/chaos-proxy.port")"
"$build/tools/ppdctl" --port="$proxy_port" ping | grep -q "OK pong"
"$build/tools/ppdctl" --port="$proxy_port" query coverage \
  --method=pulse --samples=4 --points=3 --csv > "$obs_dir/cov-chaos.csv"
cmp "$obs_dir/cov-chaos.csv" "$obs_dir/cov-cached.csv"
kill -TERM "$chaosproxy_pid"
wait "$chaosproxy_pid"
grep -q "partial_writes" "$obs_dir/chaosproxy.log"
kill -TERM "$chaos_ppdd_pid"
wait "$chaos_ppdd_pid"

echo "== crash recovery stage (kill -9, restart, reconnect and re-issue) =="
# The recovery contract: ppdd keeps no state across a restart, and every
# answer is a pure function of its query. A ppdd killed with SIGKILL
# mid-batch and restarted on the same port, with the same ppdctl batch
# reconnecting, re-sending its SETs and re-issuing the query it was waiting
# on, yields results byte-identical to an undisturbed run, in batch order.
# transfer answers fast (the kill trigger). The coverage sweep behind it
# runs under a delay-only fault plan: each of its 20 items sleeps 50 ms
# first (same bytes, ~1 s), so the SIGKILL lands mid-execution by
# construction, never after the whole batch has answered.
cat > "$obs_dir/recover.batch" <<'BATCH'
set points 5
set samples 4
set fault-plan seed=1,delay=1:0.05
query transfer
query coverage
query calibrate
quit
BATCH
# Reference: the same batch against an undisturbed server.
"$build/tools/ppdd" --port=0 --port-file="$obs_dir/ref.port" \
  --drain-grace=10 > "$obs_dir/ref-ppdd.log" 2>&1 &
ref_pid=$!
for _ in $(seq 1 50); do [ -s "$obs_dir/ref.port" ] && break; sleep 0.1; done
"$build/tools/ppdctl" --port="$(cat "$obs_dir/ref.port")" batch \
  < "$obs_dir/recover.batch" > "$obs_dir/ref-results.out"
kill -TERM "$ref_pid"; wait "$ref_pid"
# Interrupted run: SIGKILL after the first result.
"$build/tools/ppdd" --port=0 --port-file="$obs_dir/rec.port" \
  --drain-grace=10 > "$obs_dir/rec-ppdd.log" 2>&1 &
rec_pid=$!
for _ in $(seq 1 50); do [ -s "$obs_dir/rec.port" ] && break; sleep 0.1; done
rec_port="$(cat "$obs_dir/rec.port")"
"$build/tools/ppdctl" --port="$rec_port" --retries=15 --retry-backoff=0.3 \
  batch < "$obs_dir/recover.batch" > "$obs_dir/rec-results.out" &
batch_pid=$!
for _ in $(seq 1 100); do
  grep -q '"event":"result"' "$obs_dir/rec-results.out" 2>/dev/null && break
  sleep 0.1
done
kill -KILL "$rec_pid"
wait "$rec_pid" 2>/dev/null || true
# A dead server sends nothing more, so fewer than 3 results now means the
# kill landed mid-batch.
arrived="$(grep -c '"event":"result"' "$obs_dir/rec-results.out" || true)"
if [ "$arrived" -lt 1 ] || [ "$arrived" -ge 3 ]; then
  echo "crash recovery stage: the kill landed after $arrived of 3 results," \
    "not mid-batch" >&2
  exit 1
fi
# Restart a plain ppdd on the same port; the ppdctl batch (still retrying in
# the background) opens a fresh session, re-sends its SETs and re-issues the
# query it had no result for.
"$build/tools/ppdd" --port="$rec_port" --drain-grace=10 \
  > "$obs_dir/rec-ppdd2.log" 2>&1 &
rec2_pid=$!
wait "$batch_pid"
# Byte-identity of the two result sequences, and what the restarted
# instance ran: transfer, answered before the SIGKILL, never again; the
# coverage sweep that was in flight at the kill and the calibrate behind it
# once each. Ids are session-local and restart in the new session, so they
# are not compared.
"$build/tools/ppdctl" --port="$rec_port" --retries=15 --retry-backoff=0.3 \
  stats > "$obs_dir/rec-stats.json"
python3 - "$obs_dir/ref-results.out" "$obs_dir/rec-results.out" \
  "$obs_dir/rec-stats.json" <<'PYEOF'
import json, sys
def results(path):
    rows = []
    for line in open(path):
        line = line.strip()
        if not line.startswith('{"event":"result"'):
            continue
        e = json.loads(line)
        rows.append((e["kind"], e["status"], e["exit_code"], e["body"]))
    return rows
ref, rec = results(sys.argv[1]), results(sys.argv[2])
assert len(ref) == 3, f"reference run produced {len(ref)} results"
assert ref == rec, "recovered results differ from the uninterrupted run:\n%r\n%r" % (ref, rec)
kinds = json.load(open(sys.argv[3]))["kinds"]
assert kinds["transfer"]["accepted"] == 0, kinds["transfer"]
assert kinds["coverage"]["accepted"] == 1, kinds["coverage"]
assert kinds["calibrate"]["accepted"] == 1, kinds["calibrate"]
print("recovery OK: %d results byte-identical in batch order, none re-run after delivery" % len(rec))
PYEOF
kill -TERM "$rec2_pid"
wait "$rec2_pid"

echo "== golden stage (ppdtool output byte-identical to tests/golden) =="
# The transient engine's end-to-end contract: restructuring the engine
# (frozen MNA, typed stamp loops that restamp every device that can have
# changed, measurements stopped at their deciding step) changes speed,
# never bytes. Fresh outputs must equal the committed goldens exactly.
golden="$repo/tests/golden"
"$build/tools/ppdtool" coverage --method=pulse --samples=4 --points=3 \
  --csv > "$obs_dir/coverage_pulse.csv"
cmp "$obs_dir/coverage_pulse.csv" "$golden/coverage_pulse.csv"
"$build/tools/ppdtool" coverage --method=delay --samples=4 --points=3 \
  --csv > "$obs_dir/coverage_delay.csv"
cmp "$obs_dir/coverage_delay.csv" "$golden/coverage_delay.csv"
"$build/tools/ppdtool" rmin --samples=4 > "$obs_dir/rmin.txt"
cmp "$obs_dir/rmin.txt" "$golden/rmin.txt"
"$build/tools/ppdtool" transfer > "$obs_dir/transfer.txt"
cmp "$obs_dir/transfer.txt" "$golden/transfer.txt"
"$build/tools/ppdtool" coverage --method=pulse --fault=bridge --samples=4 \
  --points=3 --csv > "$obs_dir/coverage_bridge_pulse.csv"
cmp "$obs_dir/coverage_bridge_pulse.csv" "$golden/coverage_bridge_pulse.csv"
"$build/tools/ppdtool" coverage --method=delay --fault=bridge --samples=4 \
  --points=3 --csv > "$obs_dir/coverage_bridge_delay.csv"
cmp "$obs_dir/coverage_bridge_delay.csv" "$golden/coverage_bridge_delay.csv"
"$build/tools/ppdtool" calibrate --samples=4 > "$obs_dir/calibrate.txt"
cmp "$obs_dir/calibrate.txt" "$golden/calibrate.txt"
# A long mixed path: calibration's top-down walk of the nominal curve stops
# at grid point 7 of 15 here, where the default path reads all but 2.
"$build/tools/ppdtool" calibrate --samples=4 \
  --gates=nand2,nor3,nand3,nand3,nor2,nor2,nand2,nand2 \
  > "$obs_dir/calibrate_long.txt"
cmp "$obs_dir/calibrate_long.txt" "$golden/calibrate_long.txt"
# The SPICE deck of the default path and of a short faulty one (branch ROP
# at stage 1, 5 kOhm): gate and fault names parse through ppd::net's tables.
"$build/tools/ppdtool" export | cmp - "$golden/export_default.sp"
"$build/tools/ppdtool" export --gates=nand2,nor2,inv --fault=branch \
  --stage=1 --r=5e3 | cmp - "$golden/export_branch.sp"
# The .bench front end's contract: lint findings, the netlist's net ids
# (which order STA paths and ATPG tests) and everything built on them stay
# byte-identical. Run from the repo root: the outputs name the input path.
(
  cd "$repo"
  "$build/tools/ppdtool" lint --json data/c17.bench data/c432_class.bench |
    cmp - "$golden/lint_data.json"
  "$build/tools/ppdtool" sta --json --bench=data/c432_class.bench \
    --suppress=PPD302 | cmp - "$golden/sta_c432.json"
  "$build/tools/ppdtool" atpg --bench=data/c432_class.bench --csv |
    cmp - "$golden/atpg_c432.csv"
)
# Slack sites and the slackiest paths on the bundled synthetic netlist, at
# the default and at an explicit clock: the one STA pass feeds both.
"$build/tools/ppdtool" atpg --csv | cmp - "$golden/atpg_synthetic.csv"
"$build/tools/ppdtool" sta --clock=2e-9 --k=12 |
  cmp - "$golden/sta_synthetic.txt"

echo "== bench gate (perf-regression rules over bench output) =="
# tools/bench_gate.py compares a bench's JSON rows against the committed
# baseline rules; a byte-identity break or an order-of-magnitude latency
# regression fails the repo gate.
python3 "$repo/tools/bench_gate.py" --self-test
"$build/bench/bench_service_load" --clients=4 --rounds=1 |
  python3 "$repo/tools/bench_gate.py" \
    --baseline "$repo/bench/baseline/service_load.json" -

echo "== util + resil + exec + cache + net + sta under TSan and UBSan (+ lint + logic + spice under UBSan) =="
# The recovery/quarantine/checkpoint paths are themselves exercised under
# injected chaos, the sharded solve cache takes concurrent mixed traffic,
# and the path screen fans out across a thread pool; run those suites with
# the race and UB detectors on. test_util carries a seeded mutation fuzzer
# (fixed seed and budget) of the JSON reader that loads checkpoints and
# wire events; test_lint carries one of the .bench front end,
# whose netlists test_logic drives; test_spice's typed stamp lists and
# slot-indexed stamps run under UBSan too.
for san in thread undefined; do
  sbuild="$build-$san"
  cmake -B "$sbuild" -S "$repo" -DPPD_SANITIZE="$san" >/dev/null
  cmake --build "$sbuild" -j "$(nproc)" \
    --target test_util test_resil test_exec test_cache test_net test_chaos \
    test_sta test_core >/dev/null
  echo "-- $san: test_util"
  "$sbuild/tests/test_util" --gtest_brief=1
  echo "-- $san: test_resil"
  "$sbuild/tests/test_resil" --gtest_brief=1
  echo "-- $san: test_exec"
  "$sbuild/tests/test_exec" --gtest_brief=1
  echo "-- $san: test_cache"
  "$sbuild/tests/test_cache" --gtest_brief=1
  echo "-- $san: test_net"
  "$sbuild/tests/test_net" --gtest_brief=1
  echo "-- $san: test_chaos"
  "$sbuild/tests/test_chaos" --gtest_brief=1
  echo "-- $san: test_sta"
  "$sbuild/tests/test_sta" --gtest_brief=1
  if [ "$san" = undefined ]; then
    # The .bench fuzzer runs on one thread: UBSan (and ASan below) are its
    # detectors, TSan would only slow it down.
    cmake --build "$sbuild" -j "$(nproc)" \
      --target test_lint test_logic test_spice >/dev/null
    for t in test_lint test_logic test_spice; do
      echo "-- $san: $t"
      "$sbuild/tests/$t" --gtest_brief=1
    done
  fi
  # The frozen transient engine driven across exec lanes — one circuit and
  # MnaSystem per sample, nothing shared — under the race detector and
  # UBSan.
  echo "-- $san: test_core (transient engine across lanes)"
  "$sbuild/tests/test_core" \
    --gtest_filter='PulseCoverageThreads.*:DelayCoverageThreads.*:RminThreads.*' \
    --gtest_brief=1
done

echo "== linalg + spice + lint + logic under ASan =="
# The LU workspace's learned index lists address raw n x n buffers, and the
# .bench fuzzer feeds the scanner and netlist builder malformed text; the
# address sanitizer catches a heap overrun there that TSan and UBSan above
# would not.
abuild="$build-address"
cmake -B "$abuild" -S "$repo" -DPPD_SANITIZE=address >/dev/null
cmake --build "$abuild" -j "$(nproc)" \
  --target test_linalg test_spice test_lint test_logic >/dev/null
for t in test_linalg test_spice test_lint test_logic; do
  echo "-- address: $t"
  "$abuild/tests/$t" --gtest_brief=1
done

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy (changed files) =="
  # Tidy the C++ sources touched relative to the merge base with main (or
  # everything staged/modified when already on main).
  base="$(git -C "$repo" merge-base HEAD origin/main 2>/dev/null ||
          git -C "$repo" rev-parse 'HEAD~1' 2>/dev/null || echo '')"
  changed="$(git -C "$repo" diff --name-only --diff-filter=d ${base:+$base} -- \
             '*.cpp' '*.hpp' | sort -u)"
  if [ -n "$changed" ]; then
    cmake -B "$build" -S "$repo" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    (cd "$repo" && echo "$changed" | xargs clang-tidy -p "$build" --quiet)
  else
    echo "(no changed C++ files)"
  fi
else
  echo "== clang-tidy not installed; skipping static analysis stage =="
fi

echo "== all checks passed =="
