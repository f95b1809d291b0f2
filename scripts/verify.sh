#!/usr/bin/env bash
# Full verification ladder. Run from the repository root:
#
#   scripts/verify.sh [build-dir-prefix]
#
# 1. tier-1      — regular build with warnings as errors
#                  (-DPDCLAB_WERROR=ON), the whole test suite (fast, seeds
#                  at defaults)
# 2. asan        — AddressSanitizer+UndefinedBehaviorSanitizer build
#                  (-DPDCLAB_SANITIZE=address+undefined), the whole tier-1
#                  suite once under it: every decoder meets the hostile-byte
#                  tests here before any perf stage runs
# 3. labbench    — python3 labbench/selftest.py: the lab-serving benchmark's
#                  own self-test (smoke runs of every workload, metric names,
#                  correctness gates tripped on purpose)
# 4. bench-smoke — scripts/bench_snapshot: the bench binaries in a
#                  1-rep/2-round configuration (ctest -L bench-smoke) as a
#                  crash/hang canary (the lab-load, multiproc and store
#                  smokes keep their zero-lost and warm-up gates), then four
#                  representative probes (mailbox match cost, fork-join
#                  overhead, the four-way transport ping ablation incl. shm
#                  rings plus the np=8 hierarchical collective ablation,
#                  grader submissions/sec) distilled into
#                  <build-dir>/BENCH_<n>.json — trend data, not a
#                  measurement; the tracked tree is left untouched
# 5. tsan        — ThreadSanitizer build, concurrency suites (ctest -L tsan),
#                  which include the smp team poison/abort regression tests,
#                  the in-process socket-cluster suites (test_net carries the
#                  tsan label), the lab server end-to-end suite
#                  (test_lab_server carries lab-tsan), and the grade-report
#                  determinism suite (grade-tsan)
# 6. stress      — chaos seed sweeps at full depth (ctest -L stress with
#                  PDCLAB_CHAOS_SEEDS: acceptance scenarios x N seeds, the
#                  patternlet sweep at a quarter depth, the socket AND shm
#                  chaos sweeps — noise/lossy/hostile/targeted-kill — the lab
#                  admission/dispatch sweep (lab-stress), and the grader
#                  dispatch sweep (grade-stress))
# 7. net         — the transport suites (ctest -L net): wire-protocol
#                  hostile inputs, in-process socket AND shm-ring clusters,
#                  the dial-backoff/partial-send regressions, pdcrun
#                  end-to-end, the socket and shm golden variants (the shm
#                  one includes the real --chaos-kill SIGKILL postmortem
#                  check), and the net chaos sweeps at PDCLAB_CHAOS_SEEDS
#                  depth; every test is bounded by watchdog/handshake
#                  timeouts so this stage cannot hang the ladder
# 8. lab         — the lab-server suites (ctest -L lab): protocol clamps and
#                  hostile frames, fair queue + quotas, result cache, server
#                  end-to-end over unix/tcp (incl. cancellation), the shard
#                  worker-pool suite (forked pdclab workers: crash/hang
#                  detection, respawn, cancel kills), the pdclab CLI
#                  exit-code contract, the chaos sweeps over the admission/
#                  dispatch/worker-kill/cancel-race hooks at
#                  PDCLAB_CHAOS_SEEDS depth, and the 1000-session
#                  load-replay acceptance runs — inline AND multi-process
#                  with the worker-kill monkey (zero lost jobs required)
# 9. grade       — the autograder suites (ctest -L grade): mutant synthesis,
#                  verdict classification, the golden verdict suite, the
#                  byte-identical-report determinism suite, the hostile
#                  chaos sweep over the grader dispatch path at
#                  PDCLAB_CHAOS_SEEDS depth (zero hangs, zero lost
#                  verdicts), and the cohort throughput acceptance run
# 10. store      — the persistence suites (ctest -L store): WAL framing and
#                  torn-tail/corruption recovery, snapshot compaction,
#                  store-backed server integration (journal-before-ack,
#                  warm start, streamed cohort reports, SIGTERM flush), the
#                  kill-during-append/compact sweep at PDCLAB_CHAOS_SEEDS
#                  depth (zero lost acked records, byte-identical recovered
#                  reports), and the recovery/warm-up acceptance run
#
# Set PDCLAB_CHAOS_SEEDS before invoking to sweep deeper or shallower.

set -euo pipefail

prefix="${1:-build}"
jobs="$(nproc 2>/dev/null || echo 2)"
seeds="${PDCLAB_CHAOS_SEEDS:-80}"

echo "==> [1/10] tier-1: build + full test suite (${prefix})"
cmake -B "${prefix}" -S . -DPDCLAB_WERROR=ON >/dev/null
cmake --build "${prefix}" -j "${jobs}"
ctest --test-dir "${prefix}" --output-on-failure -j "${jobs}"

echo "==> [2/10] asan: ASan+UBSan build + full test suite (${prefix}-asan)"
cmake -B "${prefix}-asan" -S . -DPDCLAB_SANITIZE=address+undefined >/dev/null
cmake --build "${prefix}-asan" -j "${jobs}"
ctest --test-dir "${prefix}-asan" --output-on-failure -j "${jobs}"

echo "==> [3/10] labbench: lab-serving benchmark self-test"
python3 labbench/selftest.py

echo "==> [4/10] bench-smoke: bench canaries + BENCH snapshot (${prefix})"
scripts/bench_snapshot "${prefix}" 10

echo "==> [5/10] tsan: ThreadSanitizer build + concurrency suites (${prefix}-tsan)"
cmake -B "${prefix}-tsan" -S . -DPDCLAB_SANITIZE=thread \
  -DPDCLAB_BUILD_BENCH=OFF -DPDCLAB_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${prefix}-tsan" -j "${jobs}"
ctest --test-dir "${prefix}-tsan" --output-on-failure -j "${jobs}" -L tsan

echo "==> [6/10] stress: chaos seed sweeps, PDCLAB_CHAOS_SEEDS=${seeds}"
PDCLAB_CHAOS_SEEDS="${seeds}" \
  ctest --test-dir "${prefix}" --output-on-failure -L stress

echo "==> [7/10] net: socket + shm transports, pdcrun, goldens," \
     "PDCLAB_CHAOS_SEEDS=${seeds}"
PDCLAB_CHAOS_SEEDS="${seeds}" \
  ctest --test-dir "${prefix}" --output-on-failure -j "${jobs}" -L net

echo "==> [8/10] lab: lab server suites + chaos sweeps + load acceptance" \
     "(inline + multiproc), PDCLAB_CHAOS_SEEDS=${seeds}"
PDCLAB_CHAOS_SEEDS="${seeds}" \
  ctest --test-dir "${prefix}" --output-on-failure -L lab

echo "==> [9/10] grade: autograder suites + golden verdicts + dispatch" \
     "sweep + throughput acceptance, PDCLAB_CHAOS_SEEDS=${seeds}"
PDCLAB_CHAOS_SEEDS="${seeds}" \
  ctest --test-dir "${prefix}" --output-on-failure -L grade

echo "==> [10/10] store: WAL/recovery suites + server integration + kill" \
     "sweep + warm-up acceptance, PDCLAB_CHAOS_SEEDS=${seeds}"
PDCLAB_CHAOS_SEEDS="${seeds}" \
  ctest --test-dir "${prefix}" --output-on-failure -L store

echo "==> verify.sh: all ten stages passed"
