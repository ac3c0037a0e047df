#!/usr/bin/env bash
# CI entry point: tier-1 verification + benchmark smoke + sanitizer passes +
# throughput gate.
#
#   ./ci.sh          # everything below
#   ./ci.sh fast     # tier-1 build + ctest only
#
# Stages:
#   1. tier-1: default build with -DCSHIELD_WERROR=ON (the build stays
#              warning-free), full ctest suite (the ROADMAP acceptance bar),
#              and a source check that no file under src/ calls
#              MetadataStore::update_chunk(index, entry), which only
#              bench_ledger's model keeps: every live row writer applies its
#              journal record inside its partition's commit step; and a
#              check that no file under src/ names update_chunk_if,
#              chunk_entry_versioned or commit_row: rows carry no version,
#              and no writer retries a compare-and-swap; and a check that
#              src/core/distributor.cpp never appends to a journal, applies
#              a journal record or checkpoints a journal itself: it reaches
#              the journals only through MetadataPlane::commit and
#              MetadataPlane::checkpoint, so each partition's journal order
#              is its apply order; and a check that no file under src/ calls
#              record_placement( or sync_placements(: the provider tables
#              change only with the row write that carries their delta;
#              and a check that src/core/distributor.cpp never calls
#              .submit( on pool_ or io_pool_: ThreadPool::for_each is its one
#              fan-out, so a stripe whose providers never wait runs its shard
#              requests on the calling thread; and a check that
#              src/core/distributor.cpp never calls set_provider_lifecycle(
#              or register_provider(: fleet rows change only by broadcasting
#              the journal record replay applies; and a check that
#              src/core/shard_batcher.hpp never names std::thread: batcher
#              lanes are queues, and their batches are collected and sent
#              by tasks on the distributor's I/O pool
#   2. bench_ledger: configures and builds the bench_ledger/ package (its own
#              CMake project, compiled from ../src the way BENCHMARK.json's
#              run.sh builds it) and runs its ledger_smoke ctest: every
#              workload at smoke size, traced and untraced, with all output
#              checks on. A src/ API change that breaks the benchmark fails
#              here instead of at the next benchmark run. The smoke tests
#              share one scratch directory, so they run serially.
#   3. asan:   -DCSHIELD_SANITIZE=address, full ctest suite (includes
#              obs_test and recovery_test, so the telemetry layer, the
#              journal codec fuzz sweeps, and the crash-injection harness
#              all run under ASan here)
#   4. tsan:   -DCSHIELD_SANITIZE=thread, concurrency_test (the shared-
#              MetadataStore / two-front-end interleaving harness, telemetry
#              on, and the shard batcher's collect tasks on the I/O pool: a
#              held batch leaves its provider open to the next one, and a
#              batching distributor torn down right after its last put
#              loses nothing) + obs_test (metrics/tracer semantics under TSan) +
#              chaos_test (retry/breaker layer and degraded reads under
#              injected faults)
#              + recovery_test (journal append path + background scrub
#              pass of the maintenance walker, including the group-commit
#              multi-threaded append hammer and its crash-at-every-batch-
#              boundary replay checks, and the leadership-handoff stress:
#              16 appenders per commit mode racing checkpoints, every
#              record replayed exactly once) + health_test (the exporter
#              sampler thread and watchdog polling racing live metric
#              writers)
#              + fragmentation_test (the differential/property battery for
#              the fast-fragmentation entangle/detangle kernels, including
#              the arm-switching bit-identity sweep)
#              + migration_test (the provider-lifecycle registry hammer --
#              concurrent drain/activate churn against eligibility readers
#              -- plus the background Migrator running alongside live
#              reads, a drain racing continuous client updates, which must
#              leave every row's stripe and snapshot whole and the provider
#              objects exactly the rows' references, and rebalance() racing
#              a client update of one chunk)
#              + shardplane_test (the N-way partitioned metadata/journal
#              plane: 8 front-ends x 64 clients hammering a shared 4-shard
#              plane, 4 client threads racing a drain with provider tables
#              checked against the rows, routing-discipline checks, and the
#              per-shard crash-at-every-append-boundary recovery sweep)
#              + util_test's ThreadPoolTest cases (for_each's inline and
#              concurrent arms, and its join-before-rethrow contract)
#              + storage_test (threads mixing put, put_many, get and remove
#              on one flaky provider with a disk mirror: exact per-op
#              counters, memory and mirror holding the same objects)
#   5. crash-e2e: scripted end-to-end crash drill against cshield_cli on a
#              disk-backed root: put files, kill a put inside its only
#              journal append via CSHIELD_CRASH_AFTER_APPENDS=0 (it
#              _exit(42)s before the commit record hits disk, after every
#              shard is uploaded), restart, `recover`, and verify every
#              committed file reads back byte-identical, the lost put's
#              orphan shards are GC'd with no in-flight put to abort, the
#              lost file is unreadable, and a second `recover` is a no-op.
#              The drill runs twice: once with the default per-op commit and once with journal
#              group commit enabled (--batch-ops 8 --batch-ms 2), so the
#              crash/recover contract is proven identical under batching.
#              A sharded pass repeats the drill on a 4-way partitioned
#              metadata plane (--meta-shards 4): the crash tears one
#              shard's journal, recovery replays all four in parallel, and
#              the shard-count discipline is then checked directly --
#              `stats` with no flag auto-detects 4 shards from the journal
#              stamp, an explicit matching --meta-shards 4 is accepted, and
#              a mismatched --meta-shards 2 is rejected with a clear
#              "shard count mismatch" error before any mutation. The same
#              mismatch drill runs on the default root, a 1-shard plane
#              stamped shard 0 of 1.
#              A third pass round-trips a file stored with `put ...
#              --protection fragmentation`, proving the key-less entangled
#              protection mode survives a full process restart (metadata
#              image persistence of the mode + nonce) and reads back
#              byte-identical. A cross-arm pass stores a PL3 file with
#              `--protection partial-aes` under the default (AES-NI where
#              the host has it) arm and reads it back in a process pinned
#              to the portable arm by CSHIELD_FORCE_SCALAR=1, then the
#              reverse; both must `cmp` identical.
#              A degraded-read drill overwrites bytes in one data shard's
#              .obj file of a committed file: every file must still `get`
#              byte-identical in a fresh process, through the parity
#              fallback (its counter shows in `--stats`), `scrub` must
#              repair exactly that shard, and a second `scrub` must find
#              nothing.
#              A fourth drill (run against the ASan-built cli) covers the
#              dynamic-topology migration: join a 9th provider, kill the
#              process mid-drain via the same crash hook, verify the restart
#              reports the provider still draining with the migration
#              pending, `recover` resumes and finishes it, a second
#              `recover` is a no-op, and the file reads back byte-identical
#              before the drained provider is decommissioned.
#   6. ops-plane e2e: cshield_cli with --export-file on a real workload;
#              the JSONL sample stream must be non-empty and the final
#              Prometheus exposition must pass promtool-style line
#              validation (every line a `# TYPE` declaration or a
#              `name{labels} value` sample) and carry the build-info and
#              process gauges; `cshield_cli health` must report a healthy
#              deployment (exit 0) with every SLO listed.
#   7. forced-scalar: -DCSHIELD_FORCE_SCALAR=ON + ASan build that compiles
#              the SIMD kernel, SHA-NI and AES-NI arms out entirely, then
#              runs kernels_test, crypto_test, fragmentation_test, raid_test
#              and core_test so the portable scalar/SWAR data plane, the
#              portable SHA-256 compress, the portable AES rounds and the
#              misleading-byte codec are exercised under a sanitizer.
#              crypto_test from stage 1 and the TSan binaries from stage 3
#              are also re-run with the CSHIELD_FORCE_SCALAR=1 env override,
#              covering the runtime (no-rebuild) dispatch path of every
#              arm family.
#   8. bench:  the gated benches (bench_throughput, bench_kernels,
#              bench_encryption_vs_fragmentation, bench_migration,
#              bench_shardplane) rewrite the BENCH_*.json files at the repo
#              root through bench/harness.hpp's envelope and exit non-zero
#              when any gate fails; EXPERIMENTS.md lists each gate and its
#              bound. Every bench runs even when an earlier one fails, so
#              every BENCH file is rewritten. A python3 check then confirms
#              every BENCH_*.json parses and carries schema, git_rev,
#              hardware and gates, and lists each failed gate; the stage
#              fails if any bench exited non-zero.
set -euo pipefail
cd "$(dirname "$0")"

jobs="$(nproc 2>/dev/null || echo 2)"

echo "== [1/8] tier-1: build + ctest =="
if grep -rnE '(\.|->)update_chunk\(' src |
    grep -vE 'update_chunk\(client, password,'; then
  echo "src/ calls MetadataStore::update_chunk;" \
    "commit row writes through the partition's commit step" >&2
  exit 1
fi
if grep -rnE 'update_chunk_if|chunk_entry_versioned|commit_row' src; then
  echo "src/ names the removed row-version CAS;" \
    "commit row writes through the partition's commit step" >&2
  exit 1
fi
if grep -nE '(\.|->)append\(|apply_journal_record\(|journal\([^)]*\)->checkpoint\(' \
    src/core/distributor.cpp; then
  echo "src/core/distributor.cpp reaches a journal outside the commit step;" \
    "commit every metadata change through MetadataPlane::commit" >&2
  exit 1
fi
if grep -rnE '(record_placement|sync_placements)\(' src; then
  echo "src/ places shards in the provider tables outside a row write;" \
    "every MetadataStore row writer applies its own row's delta" >&2
  exit 1
fi
if grep -nE 'pool_\.submit\(' src/core/distributor.cpp; then
  echo "src/core/distributor.cpp submits to a thread pool directly;" \
    "fan out through ThreadPool::for_each" >&2
  exit 1
fi
if grep -nE '(set_provider_lifecycle|register_provider)\(' \
    src/core/distributor.cpp; then
  echo "src/core/distributor.cpp writes fleet rows directly;" \
    "guard, then broadcast the journal record" >&2
  exit 1
fi
if grep -nE 'std::thread' src/core/shard_batcher.hpp; then
  echo "src/core/shard_batcher.hpp creates a thread;" \
    "collect and send batches as tasks on the I/O pool" >&2
  exit 1
fi
cmake -B build -S . -DCSHIELD_WERROR=ON >/dev/null
cmake --build build -j "${jobs}"
(cd build && ctest --output-on-failure -j "${jobs}")

if [[ "${1:-}" == "fast" ]]; then
  echo "fast mode: skipping bench_ledger, sanitizer, crash-e2e, and bench stages"
  exit 0
fi

echo "== [2/8] bench_ledger: build the benchmark package + ledger_smoke =="
cmake -S bench_ledger -B build-ledger >/dev/null
cmake --build build-ledger -j "${jobs}"
(cd build-ledger && ctest --output-on-failure)

echo "== [3/8] address sanitizer: build + ctest =="
cmake -B build-asan -S . -DCSHIELD_SANITIZE=address >/dev/null
cmake --build build-asan -j "${jobs}"
(cd build-asan && ctest --output-on-failure -j "${jobs}")

echo "== [4/8] thread sanitizer: concurrency_test + obs_test + chaos_test + recovery_test + health_test + fragmentation_test + migration_test + shardplane_test + util_test ThreadPoolTest + storage_test =="
cmake -B build-tsan -S . -DCSHIELD_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "${jobs}" --target concurrency_test obs_test \
  chaos_test recovery_test health_test fragmentation_test migration_test \
  shardplane_test util_test storage_test
./build-tsan/tests/concurrency_test
./build-tsan/tests/obs_test
./build-tsan/tests/chaos_test
./build-tsan/tests/recovery_test
./build-tsan/tests/health_test
./build-tsan/tests/fragmentation_test
./build-tsan/tests/migration_test
./build-tsan/tests/shardplane_test
./build-tsan/tests/util_test --gtest_filter='ThreadPoolTest.*'
./build-tsan/tests/storage_test

echo "== [5/8] crash e2e: put, kill mid-stripe, recover, verify =="
cli=./build/examples/cshield_cli
e2e="$(mktemp -d /tmp/cshield_e2e.XXXXXX)"
trap 'rm -rf "${e2e}"' EXIT

# crash_drill <label> [cli flags...]: the full drill against a fresh root.
# Extra flags (e.g. --batch-ops/--batch-ms) apply to every cli invocation,
# so the crash, the recovery replay, and the reads all run under the same
# journal commit mode.
crash_drill() {
  local label="$1"; shift
  local dir="${e2e}/${label}"
  local root="${dir}/root"
  mkdir -p "${dir}"

  "${cli}" "${root}" init 12 "$@"
  "${cli}" "${root}" adduser alice secret 2 "$@"

  # Commit three files; each put journals one record, its kCommitPut, and
  # the write-through mirror makes every shard durable before put returns.
  local i
  for i in 1 2 3; do
    head -c $((4000 * i)) /dev/urandom > "${dir}/f${i}.bin"
    "${cli}" "${root}" put alice secret "f${i}" "${dir}/f${i}.bin" 2 "$@"
  done

  # Kill the fourth put inside its only append: every shard is uploaded,
  # the process dies inside the kCommitPut before it reaches disk. That
  # leaves on-disk orphan shards and nothing in the journal.
  head -c 9000 /dev/urandom > "${dir}/f4.bin"
  set +e
  CSHIELD_CRASH_AFTER_APPENDS=0 \
    "${cli}" "${root}" put alice secret f4 "${dir}/f4.bin" 2 "$@"
  local crash_rc=$?
  set -e
  if [[ "${crash_rc}" -ne 42 ]]; then
    echo "crash e2e[${label}]: expected injected crash exit 42, got ${crash_rc}" >&2
    exit 1
  fi

  # Restart + reconcile: the journal replays without the lost put, and its
  # orphan shards are collected. No put was journaled as begun, so none is
  # aborted.
  local recover_out
  recover_out="$("${cli}" "${root}" recover "$@")"
  echo "${recover_out}"
  if ! grep -q "recover OK" <<< "${recover_out}"; then
    echo "crash e2e[${label}]: first recover failed" >&2
    exit 1
  fi
  if grep -q "recover OK: 0 orphan" <<< "${recover_out}"; then
    echo "crash e2e[${label}]: expected orphan shards from the lost put, found none" >&2
    exit 1
  fi
  if ! grep -q " 0 in-flight puts aborted" <<< "${recover_out}"; then
    echo "crash e2e[${label}]: expected no in-flight put to abort" >&2
    exit 1
  fi

  # A second recover must be a no-op: nothing left to abort or collect.
  local recover_again
  recover_again="$("${cli}" "${root}" recover "$@")"
  echo "${recover_again}"
  if ! grep -q "recover OK: 0 orphan shards removed, 0 stale ids dropped, 0 in-flight puts aborted, 0 shards repaired" \
      <<< "${recover_again}"; then
    echo "crash e2e[${label}]: second recover was not idempotent" >&2
    exit 1
  fi

  # Every committed file must read back byte-identical; the lost one must
  # be gone entirely.
  for i in 1 2 3; do
    "${cli}" "${root}" get alice secret "f${i}" "${dir}/f${i}.out" "$@"
    cmp "${dir}/f${i}.bin" "${dir}/f${i}.out"
  done
  if "${cli}" "${root}" get alice secret f4 "${dir}/f4.out" "$@" 2>/dev/null; then
    echo "crash e2e[${label}]: lost put f4 is unexpectedly readable" >&2
    exit 1
  fi

  # Scrub the recovered deployment: a clean pass must find zero mismatches.
  local scrub_out
  scrub_out="$("${cli}" "${root}" scrub "$@")"
  echo "${scrub_out}"
  if ! grep -q "0 digest mismatches" <<< "${scrub_out}"; then
    echo "crash e2e[${label}]: scrub found mismatches on a recovered deployment" >&2
    exit 1
  fi
  echo "crash e2e[${label}]: PASS"
}

# Same drill, both journal commit modes: the crash/recover contract must be
# indistinguishable with group commit enabled.
crash_drill per-op
crash_drill group-commit --batch-ops 8 --batch-ms 2

# Sharded pass: the identical drill on a 4-way partitioned metadata plane.
# The injected crash tears whichever shard's journal the fourth put routes
# to, and `recover` replays all four journals in parallel.
crash_drill meta-shards-4 --meta-shards 4

# Shard-count discipline on the recovered 4-shard root: the journal stamp
# is the source of truth. No flag -> auto-detect 4 shards; a matching flag
# is accepted; a mismatched flag must be rejected up front with a clear
# error, leaving the plane untouched.
shard_root="${e2e}/meta-shards-4/root"
stats_out="$("${cli}" "${shard_root}" stats)"
if ! grep -q -- "--- journal (4 shards) ---" <<< "${stats_out}"; then
  echo "shard e2e: stats did not auto-detect the 4-shard plane" >&2
  exit 1
fi
for k in 0 1 2 3; do
  if ! grep -q "^shard ${k}: " <<< "${stats_out}"; then
    echo "shard e2e: stats output is missing shard ${k}" >&2
    exit 1
  fi
done
"${cli}" "${shard_root}" stats --meta-shards 4 >/dev/null
set +e
mismatch_out="$("${cli}" "${shard_root}" stats --meta-shards 2 2>&1)"
mismatch_rc=$?
set -e
if [[ "${mismatch_rc}" -eq 0 ]]; then
  echo "shard e2e: --meta-shards 2 on a 4-shard plane was not rejected" >&2
  exit 1
fi
if ! grep -q "shard count mismatch" <<< "${mismatch_out}"; then
  echo "shard e2e: mismatch rejection lacks the 'shard count mismatch' error" >&2
  exit 1
fi

# The default root is a 1-shard plane stamped shard 0 of 1: it auto-detects
# as such, and a --meta-shards 2 open is refused just like on 4 shards.
one_root="${e2e}/per-op/root"
stats_out="$("${cli}" "${one_root}" stats)"
if ! grep -q -- "--- journal (1 shard) ---" <<< "${stats_out}"; then
  echo "shard e2e: stats did not auto-detect the 1-shard plane" >&2
  exit 1
fi
set +e
mismatch_out="$("${cli}" "${one_root}" stats --meta-shards 2 2>&1)"
mismatch_rc=$?
set -e
if [[ "${mismatch_rc}" -eq 0 ]]; then
  echo "shard e2e: --meta-shards 2 on a 1-shard plane was not rejected" >&2
  exit 1
fi
if ! grep -q "shard count mismatch" <<< "${mismatch_out}"; then
  echo "shard e2e: 1-shard mismatch rejection lacks the 'shard count mismatch' error" >&2
  exit 1
fi
echo "crash e2e[shard-count discipline]: PASS"

# Fast-fragmentation protection mode e2e: store a file with the key-less
# entangled mode, then read it back from fresh processes. The mode and its
# nonce must round-trip through the metadata image across the restart.
frag="${e2e}/frag"
frag_root="${frag}/root"
mkdir -p "${frag}"
"${cli}" "${frag_root}" init 12
"${cli}" "${frag_root}" adduser alice secret 3
head -c 50000 /dev/urandom > "${frag}/f1.bin"
"${cli}" "${frag_root}" put alice secret f1 "${frag}/f1.bin" 3 \
  --protection fragmentation
"${cli}" "${frag_root}" get alice secret f1 "${frag}/f1.out"
cmp "${frag}/f1.bin" "${frag}/f1.out"
echo "crash e2e[fragmentation round-trip]: PASS"

# Partial-AES cross-arm drill: the AES-NI and portable arms must produce
# the same stored bytes. A PL3 file sealed under the default arm opens in a
# process pinned to the portable arm, and the reverse.
xarm="${e2e}/aes-arms"
xarm_root="${xarm}/root"
mkdir -p "${xarm}"
"${cli}" "${xarm_root}" init 12
"${cli}" "${xarm_root}" adduser alice secret 3
head -c 66000 /dev/urandom > "${xarm}/f1.bin"
"${cli}" "${xarm_root}" put alice secret f1 "${xarm}/f1.bin" 3 \
  --protection partial-aes
CSHIELD_FORCE_SCALAR=1 \
  "${cli}" "${xarm_root}" get alice secret f1 "${xarm}/f1.out"
cmp "${xarm}/f1.bin" "${xarm}/f1.out"
head -c 66000 /dev/urandom > "${xarm}/f2.bin"
CSHIELD_FORCE_SCALAR=1 \
  "${cli}" "${xarm_root}" put alice secret f2 "${xarm}/f2.bin" 3 \
  --protection partial-aes
"${cli}" "${xarm_root}" get alice secret f2 "${xarm}/f2.out"
cmp "${xarm}/f2.bin" "${xarm}/f2.out"
echo "crash e2e[partial-aes cross-arm]: PASS"

# Degraded-read drill: a shard corrupted on disk is an erasure. Reads fetch
# data shards only, so the victim must be a data shard for the fallback to
# run: overwrite candidates in turn until a read reports a parity fallback,
# restoring each one that did not.
deg="${e2e}/degraded"
deg_root="${deg}/root"
mkdir -p "${deg}"
"${cli}" "${deg_root}" init 12
"${cli}" "${deg_root}" adduser alice secret 2
for i in 1 2 3; do
  head -c $((5000 * i)) /dev/urandom > "${deg}/f${i}.bin"
  "${cli}" "${deg_root}" put alice secret "f${i}" "${deg}/f${i}.bin" 2
done
# get_all <suffix> [flags]: reads every file, each in a fresh process,
# prints the invocations' output and fails unless every file is
# byte-identical.
get_all() {
  local suffix="$1"; shift
  local i
  for i in 1 2 3; do
    if ! "${cli}" "${deg_root}" get alice secret "f${i}" \
        "${deg}/f${i}.${suffix}" "$@"; then
      echo "degraded e2e: get of f${i} failed" >&2
      return 1
    fi
    cmp "${deg}/f${i}.bin" "${deg}/f${i}.${suffix}" >&2 || return 1
  done
}
victim=""
while read -r obj; do
  cp "${obj}" "${deg}/victim.bak"
  printf '\xde\xad\xbe\xef' | dd of="${obj}" bs=1 seek=0 conv=notrunc status=none
  reads="$(get_all degraded --stats)"
  if grep -q "^cdd_parity_fallbacks 1$" <<< "${reads}"; then
    victim="${obj}"
    break
  fi
  cp "${deg}/victim.bak" "${obj}"
done < <(find "${deg_root}" -name '*.obj' | sort)
if [[ -z "${victim}" ]]; then
  echo "degraded e2e: no corrupted shard made a read fall back to parity" >&2
  exit 1
fi
scrub_out="$("${cli}" "${deg_root}" scrub)"
echo "${scrub_out}"
if ! grep -q "1 digest mismatches, 1 shards repaired" <<< "${scrub_out}"; then
  echo "degraded e2e: scrub did not repair exactly the corrupted shard" >&2
  exit 1
fi
scrub_out="$("${cli}" "${deg_root}" scrub)"
echo "${scrub_out}"
if ! grep -q "0 digest mismatches, 0 shards repaired" <<< "${scrub_out}"; then
  echo "degraded e2e: a second scrub still found damage" >&2
  exit 1
fi
reads="$(get_all repaired --stats)"
if grep -q "^cdd_parity_fallbacks" <<< "${reads}"; then
  echo "degraded e2e: a read still fell back to parity after the repair" >&2
  exit 1
fi
echo "crash e2e[degraded read]: PASS"

# Migration crash drill, run under ASan: join a provider, kill the process
# mid-drain (the crash hook fires inside the 3rd journal append -- after
# kBeginMigrate and a couple of shard moves, before the drain completes),
# then prove the restart sees the pending drain, `recover` resumes and
# finishes it, recovery is idempotent, and no byte of the file was lost.
asan_cli=./build-asan/examples/cshield_cli
mig="${e2e}/migration"
mig_root="${mig}/root"
mkdir -p "${mig}"
"${asan_cli}" "${mig_root}" init 8
"${asan_cli}" "${mig_root}" adduser alice secret 2
head -c 100000 /dev/urandom > "${mig}/f1.bin"
"${asan_cli}" "${mig_root}" put alice secret f1 "${mig}/f1.bin" 2

join_out="$("${asan_cli}" "${mig_root}" add-provider Zephyr 3 2)"
echo "${join_out}"
if ! grep -q "join Zephyr OK" <<< "${join_out}"; then
  echo "migration e2e: join of Zephyr did not complete" >&2
  exit 1
fi
"${asan_cli}" "${mig_root}" get alice secret f1 "${mig}/f1.join.out"
cmp "${mig}/f1.bin" "${mig}/f1.join.out"

set +e
CSHIELD_CRASH_AFTER_APPENDS=3 \
  "${asan_cli}" "${mig_root}" drain Zephyr
mig_rc=$?
set -e
if [[ "${mig_rc}" -ne 42 ]]; then
  echo "migration e2e: expected injected crash exit 42, got ${mig_rc}" >&2
  exit 1
fi

# The restarted world must report the interrupted drain, not hide it.
providers_out="$("${asan_cli}" "${mig_root}" providers)"
echo "${providers_out}"
if ! grep -q "draining" <<< "${providers_out}"; then
  echo "migration e2e: Zephyr is not reported as draining after the crash" >&2
  exit 1
fi
if ! grep -q "drain pending" <<< "${providers_out}"; then
  echo "migration e2e: pending drain not surfaced after the crash" >&2
  exit 1
fi

# recover sweeps the orphan the mid-move crash left, then resumes the drain.
mig_recover="$("${asan_cli}" "${mig_root}" recover)"
echo "${mig_recover}"
if ! grep -q "resuming drain of Zephyr" <<< "${mig_recover}"; then
  echo "migration e2e: recover did not resume the pending drain" >&2
  exit 1
fi
if ! grep -q "drain Zephyr OK" <<< "${mig_recover}"; then
  echo "migration e2e: resumed drain did not complete" >&2
  exit 1
fi

# Idempotent: a second recover has nothing to collect and nothing to resume.
mig_again="$("${asan_cli}" "${mig_root}" recover)"
echo "${mig_again}"
if ! grep -q "recover OK: 0 orphan shards removed" <<< "${mig_again}"; then
  echo "migration e2e: second recover was not a no-op" >&2
  exit 1
fi
if grep -q "resuming" <<< "${mig_again}"; then
  echo "migration e2e: second recover re-ran a completed migration" >&2
  exit 1
fi

"${asan_cli}" "${mig_root}" get alice secret f1 "${mig}/f1.drain.out"
cmp "${mig}/f1.bin" "${mig}/f1.drain.out"
decomm_out="$("${asan_cli}" "${mig_root}" decommission Zephyr)"
echo "${decomm_out}"
if ! grep -q "decommission Zephyr OK" <<< "${decomm_out}"; then
  echo "migration e2e: decommission of the drained provider failed" >&2
  exit 1
fi
echo "crash e2e[migration drain]: PASS"

echo "== [6/8] ops plane e2e: --export-file stream + exposition validation + health =="
ops="${e2e}/ops"
ops_root="${ops}/root"
mkdir -p "${ops}"
"${cli}" "${ops_root}" init 12
"${cli}" "${ops_root}" adduser alice secret 2
head -c 60000 /dev/urandom > "${ops}/f1.bin"
"${cli}" "${ops_root}" put alice secret f1 "${ops}/f1.bin" 2 \
  --export-file "${ops}/put.jsonl"
"${cli}" "${ops_root}" get alice secret f1 "${ops}/f1.out" \
  --export-file "${ops}/get.jsonl"
cmp "${ops}/f1.bin" "${ops}/f1.out"

# Each command's JSONL stream: at least one sample line, each a single
# JSON object stamped with t_ns.
for stream in put get; do
  if [[ "$(grep -c '^{"t_ns":' "${ops}/${stream}.jsonl")" -lt 1 ]]; then
    echo "ops e2e: expected >= 1 JSONL sample in ${stream}.jsonl" >&2
    exit 1
  fi
done

# Promtool-style validation of each exposition: every non-empty line is a
# `# TYPE name counter|gauge|histogram` declaration or a `name{labels}
# value` sample, and the required series are present (the op counter the
# command itself bumped, plus the build-info/process/watchdog series).
validate_prom() {
  local prom="$1"; shift
  awk '
    /^$/ { next }
    /^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$/ { next }
    /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$/ { next }
    { print "ops e2e: malformed exposition line: " $0; bad = 1 }
    END { exit bad }
  ' "${prom}"
  local series
  for series in cshield_build_info process_uptime_seconds \
      watchdog_inflight_ops "$@"; do
    if ! grep -q "^${series}" "${prom}"; then
      echo "ops e2e: ${prom} is missing ${series}" >&2
      exit 1
    fi
  done
}
validate_prom "${ops}/put.jsonl.prom" cdd_put_file_total
validate_prom "${ops}/get.jsonl.prom" cdd_get_file_total

# The health engine on a freshly exercised deployment: exit 0 (not
# critical), every subsystem SLO present, overall healthy.
health_out="$("${cli}" "${ops_root}" health)"
echo "${health_out}"
if ! grep -q "^overall: healthy" <<< "${health_out}"; then
  echo "ops e2e: expected a healthy deployment" >&2
  exit 1
fi
for slo in availability latency.put latency.get journal.flush \
    scrub.integrity breakers batcher.queue migration; do
  if ! grep -q "  ${slo}: " <<< "${health_out}"; then
    echo "ops e2e: health report is missing SLO ${slo}" >&2
    exit 1
  fi
done
echo "ops e2e: PASS"

echo "== [7/8] forced-scalar: ASan build without SIMD arms + env-override TSan rerun =="
cmake -B build-scalar -S . -DCSHIELD_FORCE_SCALAR=ON \
  -DCSHIELD_SANITIZE=address >/dev/null
cmake --build build-scalar -j "${jobs}" --target kernels_test crypto_test \
  fragmentation_test raid_test core_test
./build-scalar/tests/kernels_test
./build-scalar/tests/crypto_test
./build-scalar/tests/fragmentation_test
./build-scalar/tests/raid_test
./build-scalar/tests/core_test
# Same coverage through the runtime switch: the SIMD, SHA-NI and AES-NI
# arms are compiled in but the env override pins dispatch to the scalar
# byte loops, the portable SHA-256 compress and the portable AES rounds.
CSHIELD_FORCE_SCALAR=1 ./build/tests/crypto_test
CSHIELD_FORCE_SCALAR=1 ./build-tsan/tests/concurrency_test
CSHIELD_FORCE_SCALAR=1 ./build-tsan/tests/recovery_test

echo "== [8/8] perf gates: bench_throughput + bench_kernels + frontier + migration + shardplane =="
# Run every gated bench before judging any, so each BENCH file is rewritten
# and every failing gate is reported, not just the first.
failed_benches=()
run_gated() {
  if ! "./build/bench/$1" "$2"; then failed_benches+=("$1"); fi
}
run_gated bench_throughput BENCH_throughput.json
run_gated bench_kernels BENCH_kernels.json
run_gated bench_encryption_vs_fragmentation BENCH_frontier.json
run_gated bench_migration BENCH_migration.json
run_gated bench_shardplane BENCH_shardplane.json
python3 - <<'PY'
import glob, json, sys
bad = []
failed = []
for path in sorted(glob.glob("BENCH_*.json")):
    with open(path) as f:
        doc = json.load(f)
    missing = [k for k in ("schema", "git_rev", "hardware", "gates") if k not in doc]
    if missing:
        bad.append(f"{path}: missing {', '.join(missing)}")
        continue
    for g in doc["gates"]:
        if not g["pass"]:
            failed.append(f"  {path}: {g['name']} = {g['value']} "
                          f"({g['form']}, bound {g['bound']})")
if bad:
    sys.exit("bench envelope check failed:\n" + "\n".join(bad))
print("bench envelope: every BENCH_*.json parses and carries schema, git_rev, hardware, gates")
if failed:
    print("failed gates:\n" + "\n".join(failed))
PY
if [[ ${#failed_benches[@]} -gt 0 ]]; then
  echo "perf gates: ${failed_benches[*]} exited non-zero" >&2
  exit 1
fi

echo "== ci.sh: all stages passed =="
