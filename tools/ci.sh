#!/usr/bin/env bash
# One-shot local CI: tier-1 build + full test suite, then the sanitizer
# presets (ASan+UBSan on the governor suites, TSan on everything labelled
# `concurrency` — the serve, daemon and governor threading tests), then a
# live end-to-end smoke of the network daemon: start it, run solves through
# the CLI client, SIGTERM it, and assert a clean drain and exit code. A
# cache smoke runs the same job twice against a fresh daemon and asserts
# the repeat was answered from the result cache (stats frame). The multidb
# smoke serves two databases from one daemon, routes solves by the frame's
# "db" field (contradictory verdicts prove isolation), exercises the
# attach/detach/list admin surface over the wire, and drains both shards
# on SIGTERM. The sandbox smoke drives the fork-isolation layer end to
# end: a wedged solve hard-killed within the kill grace while a sibling
# keeps answering, an injected crash contained to a typed error, and a
# clean SIGTERM drain afterwards.
#
#   tools/ci.sh            # all eleven stages
#   tools/ci.sh tier1      # just the tier-1 stage
#   tools/ci.sh asan tsan  # just the sanitizer stages
#   tools/ci.sh daemon     # just the daemon smoke (needs a tier-1 build)
#   tools/ci.sh cache      # just the cache smoke (needs a tier-1 build)
#   tools/ci.sh multidb    # just the multidb smoke (needs a tier-1 build)
#   tools/ci.sh sandbox    # just the sandbox smoke (needs a tier-1 build)
#   tools/ci.sh recovery   # just the recovery smoke (needs a tier-1 build)
#   tools/ci.sh failover   # just the failover smoke (needs a tier-1 build)
#   tools/ci.sh parallel   # just the parallel parity smoke (needs tier-1)
#   tools/ci.sh answers    # just the answer-stream smoke (needs tier-1)
#
# The recovery smoke drives the live-update durability contract: a daemon
# with a write-ahead delta journal takes a stream of apply_delta frames,
# is SIGKILLed mid-stream, has a torn tail appended to its journal, and is
# restarted over the same base snapshot. A second attach of the live name
# must fail as a duplicate and leave its journal byte-identical. Every
# delta acked before the kill must re-ack idempotently after recovery, and
# the recovered state must be fingerprint- and verdict-identical to a
# clean application of the same deltas to a fresh daemon. The failover
# smoke extends that to the replication layer: a warm-standby follower
# (`--follow`) bootstraps from a group-fsync primary, the primary is
# SIGKILLed mid-stream, the follower is promoted, and every delta the
# dead primary acked must be accepted (or re-acked) by the promoted
# daemon, converging to fingerprint and verdict parity with a clean
# application. The parallel smoke checks the
# component-parallel path's wire-level contract: the trace generator is
# byte-deterministic from its seed, and the same recorded trace replayed
# against a live daemon at --parallelism=1 and --parallelism=8 yields
# byte-identical transcripts (the differential parity guarantee), with
# the parallel counters visible in the stats frame. The answers smoke
# drives streaming certain-answer enumeration end to end: a chunked wire
# stream whose concatenated chunks are byte-identical to the one-shot
# answer list, a client killed mid-stream that resumes from its persisted
# cursor with no holes and no duplicates, and an apply_delta epoch flip
# after which the old cursor is refused with a typed stale-cursor error
# while a fresh stream serves the post-delta answers.
set -euo pipefail
cd "$(dirname "$0")/.."

stages=("$@")
[ ${#stages[@]} -eq 0 ] && stages=(tier1 asan tsan daemon cache multidb sandbox recovery failover parallel answers)

jobs=$(nproc 2>/dev/null || echo 4)

run_stage() {
  local name="$1" configure="$2" build="$3" test="$4"
  echo "==== [$name] configure"
  cmake --preset "$configure"
  echo "==== [$name] build"
  cmake --build --preset "$build" -j "$jobs"
  echo "==== [$name] test"
  ctest --preset "$test" -j "$jobs"
}

# Signals each pid's descendants, then the pid itself, so a daemon's
# forked sandbox children go down with it.
kill_tree() {
  local sig="$1" pid; shift
  for pid in "$@"; do
    kill_tree "$sig" $(pgrep -P "$pid" || true)
    kill "-$sig" "$pid" 2>/dev/null || true
  done
}

# Runs smoke stage function $1 in a subshell, passing it a fresh work dir.
# The subshell's EXIT trap fires however the stage ends (success, a failed
# check's `exit 1`, a `set -e` abort) and kills whatever the stage left
# running in the background (daemons, client loops), then removes the dir.
run_smoke() {
  (
    work=$(mktemp -d)
    trap 'kill_tree KILL $(jobs -p); wait 2>/dev/null || true; rm -rf "$work"' EXIT
    "$1" "$work"
  )
}

# End-to-end daemon smoke against the tier-1 build: a real process, a real
# socket, a real signal. Asserts the solves answer correctly, health serves,
# SIGTERM drains, and the daemon exits 0 (clean drain, not forced).
daemon_smoke() {
  local cli=build/tools/cqa_cli
  [ -x "$cli" ] || { echo "daemon smoke needs a tier-1 build ($cli)"; exit 2; }
  local work="$1"
  printf 'R(a | b), R(a | c)\nS(b | a)\n' > "$work/facts"
  printf 'R(x | y)\nR(x | y), not S(y | x)\n' > "$work/queries"

  # An FO formula whose atoms disagree with the database's signatures must
  # fail as a typed parse error (exit 1), not crash the evaluator.
  echo "==== [daemon] evalfo schema mismatch exits 1 with both signatures"
  printf 'R(a), S(b | a), R(c)\n' > "$work/mismatch.facts"
  local fo_rc=0
  "$cli" evalfo "exists x y. R(x | y) & !S(y | x)" "$work/mismatch.facts" \
      > /dev/null 2> "$work/evalfo.err" || fo_rc=$?
  [ "$fo_rc" -eq 1 ] || { echo "evalfo exited $fo_rc (expected 1)"; exit 1; }
  grep -q "R\[2,1\] in the formula but R\[1,1\] in the database" \
      "$work/evalfo.err"

  # Deep nesting is a typed parse error naming the cap (exit 1), not a
  # stack overflow (139).
  echo "==== [daemon] evalfo on 60000 parentheses and 120000 negations exits 1"
  printf 'R(a | b)\n' > "$work/one.facts"
  local deep
  for deep in \
      "$(printf '%.0s(' $(seq 60000))exists x y. R(x | y)$(printf '%.0s)' $(seq 60000))" \
      "$(printf '%.0s!' $(seq 120000))exists x y. R(x | y)"; do
    fo_rc=0
    "$cli" evalfo "$deep" "$work/one.facts" > /dev/null 2> "$work/deep.err" \
        || fo_rc=$?
    [ "$fo_rc" -eq 1 ] || { echo "evalfo exited $fo_rc (expected 1)"; exit 1; }
    grep -q "nested deeper than 128 levels" "$work/deep.err"
  done

  # `cqa_cli solve` under every accepted method spelling keeps its exit
  # code, stdout and stderr (engine, classification and stage lines, with
  # the timings stripped) on q1 and on R(x | y) over a three-fact database.
  # One line per solve; `#` separates its output lines.
  echo "==== [daemon] solve output under every method spelling"
  local query method solve_rc
  for query in "R(x | y), not S(y | x)" "R(x | y)"; do
    for method in auto rewriting fo-rewriting algorithm1 backtracking naive \
                  matching-q1 sampling; do
      solve_rc=0
      "$cli" solve "$query" "$work/facts" --method="$method" \
          > "$work/solve.out" 2> "$work/solve.err" || solve_rc=$?
      { echo "$query --method=$method: exit $solve_rc"; cat "$work/solve.out"
        sed -E 's/, [0-9]+ us/, <t> us/' "$work/solve.err"; } | paste -sd '#'
    done
  done > "$work/engines.out"
  diff -u - "$work/engines.out" <<'EXPECTED' \
      || { echo "cqa_cli solve output changed"; exit 1; }
R(x | y), not S(y | x) --method=auto: exit 5#not certain#-- solved with matching-q1; classification: NL-hard (not in FO)#-- stage matching-q1: ok, 0 steps, <t> us
R(x | y), not S(y | x) --method=rewriting: exit 1#error: the attack graph of the query is cyclic; CERTAINTY(q) is not in FO (Theorem 4.3(1))
R(x | y), not S(y | x) --method=fo-rewriting: exit 1#error: the attack graph of the query is cyclic; CERTAINTY(q) is not in FO (Theorem 4.3(1))
R(x | y), not S(y | x) --method=algorithm1: exit 1#error: cyclic attack graph: CERTAINTY(q) not in FO
R(x | y), not S(y | x) --method=backtracking: exit 5#not certain#-- solved with backtracking; classification: NL-hard (not in FO)#-- stage backtracking: ok, 3 steps, <t> us
R(x | y), not S(y | x) --method=naive: exit 5#not certain#-- solved with naive; classification: NL-hard (not in FO)#-- stage naive: ok, 0 steps, <t> us
R(x | y), not S(y | x) --method=matching-q1: exit 5#not certain#-- solved with matching-q1; classification: NL-hard (not in FO)#-- stage matching-q1: ok, 0 steps, <t> us
R(x | y), not S(y | x) --method=sampling: exit 5#not certain#-- solved with sampling; classification: NL-hard (not in FO)#-- stage sampling: ok, 1 steps, <t> us
R(x | y) --method=auto: exit 0#certain#-- solved with algorithm1; classification: in FO#-- stage algorithm1: ok, 4 steps, <t> us
R(x | y) --method=rewriting: exit 0#certain#-- solved with fo-rewriting; classification: in FO#-- stage fo-rewriting: ok, 0 steps, <t> us
R(x | y) --method=fo-rewriting: exit 0#certain#-- solved with fo-rewriting; classification: in FO#-- stage fo-rewriting: ok, 0 steps, <t> us
R(x | y) --method=algorithm1: exit 0#certain#-- solved with algorithm1; classification: in FO#-- stage algorithm1: ok, 4 steps, <t> us
R(x | y) --method=backtracking: exit 0#certain#-- solved with backtracking; classification: in FO#-- stage backtracking: ok, 3 steps, <t> us
R(x | y) --method=naive: exit 0#certain#-- solved with naive; classification: in FO#-- stage naive: ok, 0 steps, <t> us
R(x | y) --method=matching-q1: exit 1#error: query is not q1 plus self-covering negated atoms, the class the matching solver requires
R(x | y) --method=sampling: exit 0#probably certain (confidence 0.9999 after 10000 samples)#-- solved with sampling; classification: in FO#-- stage sampling: ok, 10000 steps, <t> us
EXPECTED

  echo "==== [daemon] start"
  "$cli" serve "$work/facts" --listen=127.0.0.1:0 --workers=2 \
      > "$work/daemon.log" 2>&1 &
  local daemon_pid=$!
  local addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$work/daemon.log")
    [ -n "$addr" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "daemon never reported its address"; cat "$work/daemon.log"; exit 1
  fi

  echo "==== [daemon] client solves via $addr"
  "$cli" client "$addr" --jobs="$work/queries" > "$work/client.out"
  grep -q '^\[1\] certain' "$work/client.out"
  grep -q '^\[2\] not-certain' "$work/client.out"
  "$cli" client "$addr" --health | grep -q '"status":"serving"'
  "$cli" client "$addr" --stats | grep -q '"solves_admitted":2'

  echo "==== [daemon] SIGTERM drain"
  kill -TERM "$daemon_pid"
  local rc=0
  wait "$daemon_pid" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "daemon exited $rc (expected 0: clean drain)"
    cat "$work/daemon.log"; exit 1
  fi
  grep -q 'draining' "$work/daemon.log"
  echo "==== [daemon] OK (clean drain, exit 0)"
}

# Cache smoke against the tier-1 build: a fresh daemon (cache on by
# default) serves the identical job twice. The second run must be answered
# from the result cache — one hit, one miss in the stats frame — which
# also exercises the read-your-writes guarantee over a real socket.
cache_smoke() {
  local cli=build/tools/cqa_cli
  [ -x "$cli" ] || { echo "cache smoke needs a tier-1 build ($cli)"; exit 2; }
  local work="$1"
  printf 'R(a | b), R(a | c)\nS(b | a)\n' > "$work/facts"
  printf 'R(x | y), not S(y | x)\n' > "$work/job"

  echo "==== [cache] start daemon"
  build/tools/cqa_cli serve "$work/facts" --listen=127.0.0.1:0 --workers=2 \
      > "$work/daemon.log" 2>&1 &
  local daemon_pid=$!
  local addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$work/daemon.log")
    [ -n "$addr" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "daemon never reported its address"; cat "$work/daemon.log"; exit 1
  fi

  echo "==== [cache] same job twice via $addr"
  "$cli" client "$addr" --jobs="$work/job" > "$work/first.out"
  grep -q '^\[1\] not-certain' "$work/first.out"
  "$cli" client "$addr" --jobs="$work/job" > "$work/second.out"
  grep -q '^\[1\] not-certain' "$work/second.out"
  "$cli" client "$addr" --stats > "$work/stats.out"
  grep -q '"cache_hits":1' "$work/stats.out"
  grep -q '"cache_misses":1' "$work/stats.out"

  kill -TERM "$daemon_pid"
  local rc=0
  wait "$daemon_pid" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "daemon exited $rc (expected 0: clean drain)"
    cat "$work/daemon.log"; exit 1
  fi
  echo "==== [cache] OK (repeat served from cache: 1 hit, 1 miss)"
}

# Multi-database smoke against the tier-1 build: one daemon, two attached
# databases with contradictory verdicts on the same query text, routed by
# the solve frame's "db" field. Also round-trips the attach/detach/list
# admin surface over the wire and asserts SIGTERM drains every shard.
multidb_smoke() {
  local cli=build/tools/cqa_cli
  [ -x "$cli" ] || { echo "multidb smoke needs a tier-1 build ($cli)"; exit 2; }
  local work="$1"
  # The differential pair: identical query text, opposite verdicts.
  printf 'R(a | b), R(a | c)\nS(b | a)\n' > "$work/facts_a"
  printf 'R(a | b), R(a | c)\nS(z | z)\n' > "$work/facts_b"
  printf 'R(x | y), not S(y | x)\n' > "$work/job"

  echo "==== [multidb] start daemon with two databases"
  "$cli" serve --listen=127.0.0.1:0 --shard-workers=2 \
      --db=a="$work/facts_a" --db=b="$work/facts_b" \
      > "$work/daemon.log" 2>&1 &
  local daemon_pid=$!
  local addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$work/daemon.log")
    [ -n "$addr" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "daemon never reported its address"; cat "$work/daemon.log"; exit 1
  fi

  echo "==== [multidb] contradictory verdicts route by db via $addr"
  "$cli" client "$addr" --db=a --jobs="$work/job" > "$work/a.out"
  grep -q '^\[1\] not-certain' "$work/a.out"
  "$cli" client "$addr" --db=b --jobs="$work/job" > "$work/b.out"
  grep -q '^\[1\] certain' "$work/b.out"
  # No "db" field falls back to the default instance (first attached).
  "$cli" client "$addr" --jobs="$work/job" > "$work/default.out"
  grep -q '^\[1\] not-certain' "$work/default.out"

  echo "==== [multidb] attach/detach/list round trip"
  "$cli" admin "$addr" list > "$work/list1.out"
  grep -q '"name":"a"' "$work/list1.out"
  grep -q '"name":"b"' "$work/list1.out"
  "$cli" admin "$addr" attach c "$work/facts_b" > "$work/attach.out"
  grep -q '"type":"attach_ack"' "$work/attach.out"
  "$cli" client "$addr" --db=c --jobs="$work/job" > "$work/c.out"
  grep -q '^\[1\] certain' "$work/c.out"
  "$cli" admin "$addr" detach c > "$work/detach.out"
  grep -q '"type":"detach_ack"' "$work/detach.out"
  grep -q '"drained":true' "$work/detach.out"
  # Solves for a detached instance fail typed, and the siblings still serve.
  if "$cli" client "$addr" --db=c --jobs="$work/job" > "$work/gone.out"; then
    echo "solve against a detached database should fail"; exit 1
  fi
  grep -q 'detached' "$work/gone.out"
  "$cli" client "$addr" --db=b --jobs="$work/job" | grep -q '^\[1\] certain'
  "$cli" client "$addr" --stats > "$work/stats.out"
  grep -q '"databases_attached":1' "$work/stats.out"
  grep -q '"databases_detached":1' "$work/stats.out"

  echo "==== [multidb] SIGTERM drains every shard"
  kill -TERM "$daemon_pid"
  local rc=0
  wait "$daemon_pid" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "daemon exited $rc (expected 0: clean drain)"
    cat "$work/daemon.log"; exit 1
  fi
  grep -q 'draining' "$work/daemon.log"
  echo "==== [multidb] OK (per-db routing, admin round trip, clean drain)"
}

# Sandbox smoke against the tier-1 build: a live daemon running solves in
# forked, supervised children. A wedged solve (blocks between budget
# probes, immune to cooperative cancellation) must be hard-killed within
# the kill grace while a sibling in-process solve completes on the other
# worker; an injected SIGSEGV must surface as a typed worker-crashed error
# with the daemon still answering; SIGTERM must drain cleanly with every
# child reaped.
sandbox_smoke() {
  local cli=build/tools/cqa_cli
  [ -x "$cli" ] || { echo "sandbox smoke needs a tier-1 build ($cli)"; exit 2; }
  local work="$1"
  printf 'R(a | b), R(a | c)\nS(b | a)\n' > "$work/facts"
  printf 'R(x | y), not S(y | x)\n' > "$work/hard_job"
  printf 'R(x | y)\n' > "$work/fo_job"

  echo "==== [sandbox] start daemon (auto isolation, 300ms kill grace)"
  "$cli" serve "$work/facts" --listen=127.0.0.1:0 --workers=2 \
      --isolation=auto --kill-grace-ms=300 \
      > "$work/daemon.log" 2>&1 &
  local daemon_pid=$!
  local addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$work/daemon.log")
    [ -n "$addr" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "daemon never reported its address"; cat "$work/daemon.log"; exit 1
  fi

  echo "==== [sandbox] wedged fork is hard-killed while a sibling answers"
  local t0; t0=$(date +%s%N)
  "$cli" client "$addr" --jobs="$work/hard_job" --isolation=fork \
      --method=backtracking --timeout-ms=200 --wedge-after=1 \
      --cache=bypass > "$work/wedge.out" 2>&1 &
  local wedge_pid=$!
  # While the wedge hangs one worker, the other must keep serving inproc.
  "$cli" client "$addr" --jobs="$work/fo_job" --isolation=inproc \
      > "$work/sibling.out"
  grep -q '^\[1\] certain' "$work/sibling.out"
  local wedge_rc=0
  wait "$wedge_pid" || wedge_rc=$?
  local t1; t1=$(date +%s%N)
  if [ "$wedge_rc" -eq 0 ]; then
    echo "wedged solve should not succeed"; cat "$work/wedge.out"; exit 1
  fi
  grep -q 'deadline' "$work/wedge.out"
  # 200ms timeout + 300ms grace; generous slack for a loaded CI host, but
  # far below the "wedged forever" failure mode this guards against.
  local elapsed_ms=$(( (t1 - t0) / 1000000 ))
  if [ "$elapsed_ms" -ge 5000 ]; then
    echo "wedged solve held its worker for ${elapsed_ms}ms"; exit 1
  fi

  echo "==== [sandbox] injected SIGSEGV is contained"
  local crash_rc=0
  "$cli" client "$addr" --jobs="$work/hard_job" --isolation=fork \
      --method=backtracking --crash-after=1 --cache=bypass \
      > "$work/crash.out" 2>&1 || crash_rc=$?
  if [ "$crash_rc" -eq 0 ]; then
    echo "crashing solve should not succeed"; cat "$work/crash.out"; exit 1
  fi
  grep -q 'worker-crashed' "$work/crash.out"
  "$cli" client "$addr" --health | grep -q '"status":"serving"'
  "$cli" client "$addr" --jobs="$work/fo_job" | grep -q '^\[1\] certain'
  "$cli" client "$addr" --stats > "$work/stats.out"
  grep -q '"sandbox_crashes":1' "$work/stats.out"
  grep -q '"sandbox_kills":1' "$work/stats.out"

  echo "==== [sandbox] SIGTERM drain reaps every child"
  kill -TERM "$daemon_pid"
  local rc=0
  wait "$daemon_pid" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "daemon exited $rc (expected 0: clean drain)"
    cat "$work/daemon.log"; exit 1
  fi
  grep -q 'draining' "$work/daemon.log"
  echo "==== [sandbox] OK (hard preemption, crash containment, clean drain)"
}

# Recovery smoke against the tier-1 build: crash-safe live updates. The
# journal is written with fsync-per-append, so every acked delta must
# survive a SIGKILL at an arbitrary point in an apply stream plus trailing
# journal garbage, and recovery must converge to the clean-application
# state (same fingerprint, same verdict).
recovery_smoke() {
  local cli=build/tools/cqa_cli
  [ -x "$cli" ] || { echo "recovery smoke needs a tier-1 build ($cli)"; exit 2; }
  local work="$1"
  printf 'R(a | b), R(a | c)\nS(b | a)\nT(t0 | u0)\n' > "$work/facts"
  printf 'R(x | y), not S(y | x)\n' > "$work/job"
  # delta 1 flips the job's verdict; the rest grow T so every delta moves
  # the fingerprint.
  printf -- '-S(b, a)\n+R(d | e)\n' > "$work/delta1"
  local i
  for i in $(seq 2 8); do
    printf -- '+T(t%d | u%d)\n' "$i" "$i" > "$work/delta$i"
  done

  # Starts a daemon ($1 = log file, rest = args) in this shell — not a
  # command substitution, so the pid stays `wait`-able — and leaves its
  # address in $log.addr and its pid in $log.pid.
  start_daemon() {
    local log="$1"; shift
    "$cli" serve "$@" > "$log" 2>&1 &
    echo $! > "$log.pid"
    local addr=""
    for _ in $(seq 1 100); do
      addr=$(sed -n 's/^listening on //p' "$log")
      [ -n "$addr" ] && break
      kill -0 "$(cat "$log.pid")" 2>/dev/null || break
      sleep 0.1
    done
    if [ -z "$addr" ]; then
      echo "daemon never reported its address" >&2; cat "$log" >&2; exit 1
    fi
    echo "$addr" > "$log.addr"
  }

  echo "==== [recovery] start daemon with a write-ahead journal"
  start_daemon "$work/daemon.log" "$work/facts" --listen=127.0.0.1:0 \
      --workers=2 --journal-dir="$work/journal" --journal-fsync=always
  local addr; addr=$(cat "$work/daemon.log.addr")
  local daemon_pid; daemon_pid=$(cat "$work/daemon.log.pid")
  "$cli" client "$addr" --jobs="$work/job" | grep -q '^\[1\] not-certain'

  echo "==== [recovery] SIGKILL mid-stream of acked deltas"
  ( for i in $(seq 1 8); do
      "$cli" admin "$addr" apply default "$work/delta$i" --delta-id="d$i" \
        >> "$work/acks.out" 2>/dev/null || break
      sleep 0.05
    done ) &
  local stream_pid=$!
  sleep 0.2
  kill -9 "$daemon_pid"
  wait "$stream_pid" 2>/dev/null || true
  wait "$daemon_pid" 2>/dev/null || true
  local acked
  acked=$(grep -c '"type":"delta_ack"' "$work/acks.out" || true)
  echo "==== [recovery] $acked deltas acked before the kill"

  # A torn tail: raw garbage past the last fsynced record, as a crash mid-
  # append would leave. Recovery must truncate it, not reject the journal.
  printf 'GARBAGE-TORN-TAIL' >> "$work/journal/default.journal"

  echo "==== [recovery] restart over the same base snapshot"
  start_daemon "$work/daemon2.log" "$work/facts" --listen=127.0.0.1:0 \
      --workers=2 --journal-dir="$work/journal" --journal-fsync=always
  addr=$(cat "$work/daemon2.log.addr")
  local recovered_pid; recovered_pid=$(cat "$work/daemon2.log.pid")

  # An attach of a live name is refused before recovery reads its files:
  # it must neither replay nor truncate the live journal, and a base the
  # journal was not written against must fail as a duplicate too, not as
  # a replay divergence.
  echo "==== [recovery] a second attach of the live name leaves its journal alone"
  printf 'R(a | b)\n' > "$work/other_facts"
  cp "$work/journal/default.journal" "$work/journal.before"
  local base
  for base in "$work/facts" "$work/other_facts"; do
    if "$cli" admin "$addr" attach default "$base" > "$work/dup.out"; then
      echo "a second attach of 'default' should fail"; cat "$work/dup.out"
      exit 1
    fi
    grep -q '"code":"unsupported"' "$work/dup.out" &&
      grep -q "database 'default' is already attached" "$work/dup.out" || {
        echo "want a typed already-attached error:"; cat "$work/dup.out"
        exit 1
      }
    cmp "$work/journal.before" "$work/journal/default.journal"
  done

  echo "==== [recovery] every acked delta re-acks idempotently"
  for i in $(seq 1 "$acked"); do
    "$cli" admin "$addr" apply default "$work/delta$i" --delta-id="d$i" \
        > "$work/reack$i.out"
    grep -q '"applied":false' "$work/reack$i.out" || {
      echo "acked delta d$i was lost by recovery"; cat "$work/reack$i.out"
      exit 1
    }
  done

  echo "==== [recovery] converge both daemons on the full delta set"
  start_daemon "$work/daemon3.log" "$work/facts" \
      --listen=127.0.0.1:0 --workers=2
  local clean_addr; clean_addr=$(cat "$work/daemon3.log.addr")
  local clean_pid; clean_pid=$(cat "$work/daemon3.log.pid")
  for i in $(seq 1 8); do
    "$cli" admin "$addr" apply default "$work/delta$i" --delta-id="d$i" \
        > /dev/null
    "$cli" admin "$clean_addr" apply default "$work/delta$i" \
        --delta-id="d$i" > /dev/null
  done
  local fp_recovered fp_clean
  fp_recovered=$("$cli" admin "$addr" list \
      | sed -n 's/.*"fingerprint":"\([0-9a-f]*\)".*/\1/p')
  fp_clean=$("$cli" admin "$clean_addr" list \
      | sed -n 's/.*"fingerprint":"\([0-9a-f]*\)".*/\1/p')
  if [ -z "$fp_recovered" ] || [ "$fp_recovered" != "$fp_clean" ]; then
    echo "recovered fingerprint '$fp_recovered' != clean '$fp_clean'"
    exit 1
  fi
  "$cli" client "$addr" --jobs="$work/job" > "$work/recovered.out"
  "$cli" client "$clean_addr" --jobs="$work/job" > "$work/clean.out"
  grep -q '^\[1\] certain' "$work/recovered.out"
  grep -q '^\[1\] certain' "$work/clean.out"

  echo "==== [recovery] SIGTERM drains both daemons"
  kill -TERM "$recovered_pid" "$clean_pid"
  local rc=0
  wait "$recovered_pid" || rc=$?
  [ "$rc" -eq 0 ] || { echo "recovered daemon exited $rc"; exit 1; }
  rc=0
  wait "$clean_pid" || rc=$?
  [ "$rc" -eq 0 ] || { echo "clean daemon exited $rc"; exit 1; }
  echo "==== [recovery] OK ($acked acked deltas survived SIGKILL +" \
       "torn tail; fingerprint $fp_recovered matches clean application)"
}

# Failover smoke against the tier-1 build: warm-standby replication. A
# primary with a group-fsync journal feeds a follower over the replication
# stream; the primary is SIGKILLed mid-stream of acked deltas; the follower
# is promoted and must (a) re-ack or freshly apply every delta the dead
# primary acked — never refuse one — and (b) converge to fingerprint and
# verdict parity with a clean application of the full delta set.
failover_smoke() {
  local cli=build/tools/cqa_cli
  [ -x "$cli" ] || { echo "failover smoke needs a tier-1 build ($cli)"; exit 2; }
  local work="$1"
  printf 'R(a | b), R(a | c)\nS(b | a)\nT(t0 | u0)\n' > "$work/facts"
  printf 'R(x | y), not S(y | x)\n' > "$work/job"
  printf -- '-S(b, a)\n+R(d | e)\n' > "$work/delta1"
  local i
  for i in $(seq 2 8); do
    printf -- '+T(t%d | u%d)\n' "$i" "$i" > "$work/delta$i"
  done

  start_daemon() {
    local log="$1"; shift
    "$cli" serve "$@" > "$log" 2>&1 &
    echo $! > "$log.pid"
    local addr=""
    for _ in $(seq 1 100); do
      addr=$(sed -n 's/^listening on //p' "$log")
      [ -n "$addr" ] && break
      kill -0 "$(cat "$log.pid")" 2>/dev/null || break
      sleep 0.1
    done
    if [ -z "$addr" ]; then
      echo "daemon never reported its address" >&2; cat "$log" >&2; exit 1
    fi
    echo "$addr" > "$log.addr"
  }

  echo "==== [failover] start primary (group fsync) and follower"
  start_daemon "$work/primary.log" "$work/facts" --listen=127.0.0.1:0 \
      --workers=2 --journal-dir="$work/pjournal" --journal-fsync=group
  local paddr; paddr=$(cat "$work/primary.log.addr")
  local primary_pid; primary_pid=$(cat "$work/primary.log.pid")
  start_daemon "$work/follower.log" --listen=127.0.0.1:0 --workers=2 \
      --journal-dir="$work/fjournal" --journal-fsync=group --follow="$paddr"
  local faddr; faddr=$(cat "$work/follower.log.addr")
  local follower_pid; follower_pid=$(cat "$work/follower.log.pid")

  echo "==== [failover] wait for the replication bootstrap"
  local bootstrapped=""
  for _ in $(seq 1 100); do
    if "$cli" admin "$faddr" list 2>/dev/null | grep -q '"default"'; then
      bootstrapped=yes; break
    fi
    sleep 0.1
  done
  [ -n "$bootstrapped" ] || {
    echo "follower never bootstrapped"; cat "$work/follower.log"; exit 1
  }
  "$cli" client "$faddr" --jobs="$work/job" | grep -q '^\[1\] not-certain'

  echo "==== [failover] follower refuses writes while following"
  if "$cli" admin "$faddr" apply default "$work/delta1" --delta-id=refused \
      > "$work/refused.out" 2>&1; then
    echo "follower accepted a write before promotion"; exit 1
  fi
  grep -q 'read-only' "$work/refused.out" || {
    echo "expected a typed read-only refusal"; cat "$work/refused.out"; exit 1
  }

  echo "==== [failover] SIGKILL primary mid-stream of acked deltas"
  ( for i in $(seq 1 8); do
      "$cli" admin "$paddr" apply default "$work/delta$i" --delta-id="d$i" \
        >> "$work/acks.out" 2>/dev/null || break
      sleep 0.05
    done ) &
  local stream_pid=$!
  sleep 0.2
  kill -9 "$primary_pid"
  wait "$stream_pid" 2>/dev/null || true
  wait "$primary_pid" 2>/dev/null || true
  local acked
  acked=$(grep -c '"type":"delta_ack"' "$work/acks.out" || true)
  echo "==== [failover] $acked deltas acked before the kill"

  echo "==== [failover] promote the follower"
  "$cli" admin "$faddr" promote > "$work/promote.out"
  grep -q '"type":"promote_ack"' "$work/promote.out" || {
    echo "promote failed"; cat "$work/promote.out"; exit 1
  }
  grep -q '"was_follower":true' "$work/promote.out" || {
    echo "daemon claims it was never a follower"; cat "$work/promote.out"
    exit 1
  }

  echo "==== [failover] no acked delta is refused by the promoted daemon"
  for i in $(seq 1 "$acked"); do
    "$cli" admin "$faddr" apply default "$work/delta$i" --delta-id="d$i" \
        > "$work/reack$i.out" || {
      echo "acked delta d$i was refused after failover"; cat "$work/reack$i.out"
      exit 1
    }
    grep -q '"type":"delta_ack"' "$work/reack$i.out" || {
      echo "acked delta d$i did not re-ack"; cat "$work/reack$i.out"; exit 1
    }
  done

  echo "==== [failover] converge on the full set and check parity"
  start_daemon "$work/clean.log" "$work/facts" --listen=127.0.0.1:0 --workers=2
  local clean_addr; clean_addr=$(cat "$work/clean.log.addr")
  local clean_pid; clean_pid=$(cat "$work/clean.log.pid")
  for i in $(seq 1 8); do
    "$cli" admin "$faddr" apply default "$work/delta$i" --delta-id="d$i" \
        > /dev/null
    "$cli" admin "$clean_addr" apply default "$work/delta$i" \
        --delta-id="d$i" > /dev/null
  done
  local fp_failover fp_clean
  fp_failover=$("$cli" admin "$faddr" list \
      | sed -n 's/.*"fingerprint":"\([0-9a-f]*\)".*/\1/p')
  fp_clean=$("$cli" admin "$clean_addr" list \
      | sed -n 's/.*"fingerprint":"\([0-9a-f]*\)".*/\1/p')
  if [ -z "$fp_failover" ] || [ "$fp_failover" != "$fp_clean" ]; then
    echo "failover fingerprint '$fp_failover' != clean '$fp_clean'"
    exit 1
  fi
  "$cli" client "$faddr" --jobs="$work/job" | grep -q '^\[1\] certain'
  "$cli" client "$clean_addr" --jobs="$work/job" | grep -q '^\[1\] certain'

  echo "==== [failover] SIGTERM drains the promoted daemon"
  kill -TERM "$follower_pid" "$clean_pid"
  local rc=0
  wait "$follower_pid" || rc=$?
  [ "$rc" -eq 0 ] || { echo "promoted daemon exited $rc"; exit 1; }
  rc=0
  wait "$clean_pid" || rc=$?
  [ "$rc" -eq 0 ] || { echo "clean daemon exited $rc"; exit 1; }
  echo "==== [failover] OK ($acked acked deltas survived the primary's" \
       "death; fingerprint $fp_failover matches clean application)"
}

# Parallel parity smoke against the tier-1 build: record a mixed-tenant
# trace (deterministically — the same seed must produce the same bytes),
# then replay it open-loop against two fresh daemons, one forcing every
# request to --parallelism=1 (the sequential baseline) and one to
# --parallelism=8 (component-decomposed fan-out). The verdict transcripts
# must be byte-for-byte identical, and the width-8 daemon's stats must
# show the parallel counters moving. Caching is off so every replayed
# request genuinely runs its solve path.
parallel_smoke() {
  local cli=build/tools/cqa_cli
  local bt=build/bench/bench_trace
  [ -x "$cli" ] || { echo "parallel smoke needs a tier-1 build ($cli)"; exit 2; }
  [ -x "$bt" ] || { echo "parallel smoke needs a tier-1 build ($bt)"; exit 2; }
  local work="$1"

  echo "==== [parallel] trace generator is byte-deterministic from its seed"
  "$bt" --record="$work/a.trace" --seed=11 --requests=160 > "$work/rec1.out"
  "$bt" --record="$work/b.trace" --seed=11 --requests=160 > "$work/rec2.out"
  cmp "$work/a.trace" "$work/b.trace"
  grep -q 'crc32c=' "$work/rec1.out"

  start_daemon() {
    local log="$1"; shift
    "$cli" serve "$@" > "$log" 2>&1 &
    echo $! > "$log.pid"
    local addr=""
    for _ in $(seq 1 100); do
      addr=$(sed -n 's/^listening on //p' "$log")
      [ -n "$addr" ] && break
      kill -0 "$(cat "$log.pid")" 2>/dev/null || break
      sleep 0.1
    done
    if [ -z "$addr" ]; then
      echo "daemon never reported its address" >&2; cat "$log" >&2; exit 1
    fi
    echo "$addr" > "$log.addr"
  }

  printf 'R(a | b), R(a | c)\nS(b | a)\n' > "$work/facts"

  echo "==== [parallel] replay at parallelism 1 (sequential baseline)"
  start_daemon "$work/d1.log" "$work/facts" --listen=127.0.0.1:0 \
      --workers=4 --queue-cap=4096 --no-cache
  local addr1; addr1=$(cat "$work/d1.log.addr")
  local pid1; pid1=$(cat "$work/d1.log.pid")
  "$bt" --replay="$work/a.trace" --connect="$addr1" --parallelism=1 \
      --transcript="$work/p1.transcript" > "$work/p1.out"
  kill -TERM "$pid1"
  local rc=0
  wait "$pid1" || rc=$?
  [ "$rc" -eq 0 ] || { echo "p1 daemon exited $rc"; cat "$work/d1.log"; exit 1; }

  echo "==== [parallel] replay at parallelism 8 (component fan-out)"
  start_daemon "$work/d8.log" "$work/facts" --listen=127.0.0.1:0 \
      --workers=4 --queue-cap=4096 --no-cache
  local addr8; addr8=$(cat "$work/d8.log.addr")
  local pid8; pid8=$(cat "$work/d8.log.pid")
  "$bt" --replay="$work/a.trace" --connect="$addr8" --parallelism=8 \
      --transcript="$work/p8.transcript" > "$work/p8.out"
  "$cli" client "$addr8" --stats > "$work/stats.out"
  grep -q '"parallel_solves":[1-9]' "$work/stats.out"
  grep -q '"components_found":[1-9]' "$work/stats.out"
  kill -TERM "$pid8"
  rc=0
  wait "$pid8" || rc=$?
  [ "$rc" -eq 0 ] || { echo "p8 daemon exited $rc"; cat "$work/d8.log"; exit 1; }

  echo "==== [parallel] transcripts must be byte-for-byte identical"
  cmp "$work/p1.transcript" "$work/p8.transcript"
  [ -s "$work/p1.transcript" ] || { echo "empty transcript"; exit 1; }
  echo "==== [parallel] OK (deterministic trace; parity across widths 1/8)"
}

# Answer-stream smoke against the tier-1 build: the chunked enumerator
# must tile the one-shot certain-answer list exactly (locally and over
# the wire), a client hung up mid-stream must resume from its persisted
# cursor with no holes and no duplicates, and an apply_delta epoch flip
# must refuse the stale cursor with a typed error while a fresh stream
# serves the post-delta answers.
answers_smoke() {
  local cli=build/tools/cqa_cli
  [ -x "$cli" ] || { echo "answers smoke needs a tier-1 build ($cli)"; exit 2; }
  local work="$1"

  # 60 keys, every 4th blocked by a matching S fact: 45 certain answers.
  local i k
  : > "$work/facts"
  for i in $(seq 0 59); do
    k=$(printf 'k%02d' "$i")
    printf 'R(%s | %s)\n' "$k" "$k" >> "$work/facts"
    [ $((i % 4)) -eq 0 ] && printf 'S(%s | %s)\n' "$k" "$k" >> "$work/facts"
  done
  local query='R(x | y), not S(x | y)'

  echo "==== [answers] chunked local enumeration tiles the one-shot list"
  "$cli" answers "$query" "$work/facts" --free=x \
      > "$work/oneshot.out" 2>/dev/null
  [ "$(wc -l < "$work/oneshot.out")" -eq 45 ] \
      || { echo "expected 45 certain answers"; exit 1; }
  "$cli" answers "$query" "$work/facts" --free=x --max-chunk=7 \
      > "$work/chunked.out" 2>/dev/null
  cmp "$work/oneshot.out" "$work/chunked.out"

  start_daemon() {
    local log="$1"; shift
    "$cli" serve "$@" > "$log" 2>&1 &
    echo $! > "$log.pid"
    local addr=""
    for _ in $(seq 1 100); do
      addr=$(sed -n 's/^listening on //p' "$log")
      [ -n "$addr" ] && break
      kill -0 "$(cat "$log.pid")" 2>/dev/null || break
      sleep 0.1
    done
    if [ -z "$addr" ]; then
      echo "daemon never reported its address" >&2; cat "$log" >&2; exit 1
    fi
    echo "$addr" > "$log.addr"
  }

  start_daemon "$work/daemon.log" "$work/facts" --listen=127.0.0.1:0 \
      --workers=2
  local addr; addr=$(cat "$work/daemon.log.addr")
  local daemon_pid; daemon_pid=$(cat "$work/daemon.log.pid")

  echo "==== [answers] wire stream matches the one-shot list byte for byte"
  "$cli" client "$addr" --answers="$query" --free=x --max-chunk=7 \
      > "$work/full.out" 2> "$work/full.err"
  cmp "$work/oneshot.out" "$work/full.out"
  grep -q -- '-- 45 answers in 7 chunks' "$work/full.err"

  echo "==== [answers] hang up after 3 chunks, resume from the cursor file"
  "$cli" client "$addr" --answers="$query" --free=x --max-chunk=7 \
      --chunks=3 --cursor-file="$work/cursor" \
      > "$work/part1.out" 2>/dev/null
  [ -s "$work/cursor" ] || { echo "no cursor persisted"; exit 1; }
  grep -q '^cqa2' "$work/cursor"
  "$cli" client "$addr" --answers="$query" --free=x --max-chunk=7 \
      --resume --cursor-file="$work/cursor" \
      > "$work/part2.out" 2>/dev/null
  cat "$work/part1.out" "$work/part2.out" > "$work/stitched.out"
  cmp "$work/oneshot.out" "$work/stitched.out"

  echo "==== [answers] apply_delta flips the epoch; the old cursor is stale"
  printf -- '+R(zz | zz)\n' > "$work/delta"
  "$cli" admin "$addr" apply default "$work/delta" --delta-id=a1 > /dev/null
  if "$cli" client "$addr" --answers="$query" --free=x \
      --resume --cursor-file="$work/cursor" \
      > "$work/stale.out" 2> "$work/stale.err"; then
    echo "stale cursor was accepted after an epoch flip"; exit 1
  fi
  grep -q 'stale-cursor' "$work/stale.err"
  [ -s "$work/stale.out" ] && { echo "stale stream emitted rows"; exit 1; }

  echo "==== [answers] a fresh stream serves the post-delta answers"
  "$cli" client "$addr" --answers="$query" --free=x --max-chunk=7 \
      > "$work/fresh.out" 2>/dev/null
  [ "$(wc -l < "$work/fresh.out")" -eq 46 ] \
      || { echo "expected 46 post-delta answers"; exit 1; }
  grep -q '^(zz)$' "$work/fresh.out"

  echo "==== [answers] stream counters are visible in the stats frame"
  "$cli" client "$addr" --stats > "$work/stats.out"
  grep -q '"answers_streams":[1-9]' "$work/stats.out"
  grep -q '"answers_resumed":[1-9]' "$work/stats.out"
  grep -q '"answer_chunks_sent":[1-9]' "$work/stats.out"
  # The daemon and per-db objects carry the same key names, so check the
  # cross-shard aggregate itself.
  python3 -c '
import json, sys
service = json.loads(sys.stdin.readline())["service"]
assert service["answer_chunks"] >= 1, service
assert service["answers_stale_cursors"] == 1, service
' < "$work/stats.out"

  echo "==== [answers] SIGTERM drains the daemon"
  kill -TERM "$daemon_pid"
  local rc=0
  wait "$daemon_pid" || rc=$?
  [ "$rc" -eq 0 ] || { echo "daemon exited $rc"; cat "$work/daemon.log"; exit 1; }
  echo "==== [answers] OK (chunk tiling, cursor resume, typed staleness)"
}

for stage in "${stages[@]}"; do
  case "$stage" in
    tier1) run_stage tier1 default default default ;;
    asan)  run_stage asan-ubsan asan-ubsan asan-ubsan asan-ubsan ;;
    tsan)  run_stage tsan tsan tsan tsan ;;
    daemon) run_smoke daemon_smoke ;;
    cache) run_smoke cache_smoke ;;
    multidb) run_smoke multidb_smoke ;;
    sandbox) run_smoke sandbox_smoke ;;
    recovery) run_smoke recovery_smoke ;;
    failover) run_smoke failover_smoke ;;
    parallel) run_smoke parallel_smoke ;;
    answers) run_smoke answers_smoke ;;
    *) echo "unknown stage '$stage'" \
            "(want: tier1 asan tsan daemon cache multidb sandbox recovery" \
            "failover parallel answers)" >&2
       exit 2 ;;
  esac
done
echo "==== CI OK (${stages[*]})"
