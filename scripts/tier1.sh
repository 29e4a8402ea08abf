#!/usr/bin/env bash
# Tier-1 verification: the plain build + full test suite and the
# telemetry, admin, storage and benchmark smokes; then the fault
# subsystem, the simulated world, the storage and snapshot suites, the
# spectral kernels and classifier, and the CRC32C checksum again under
# AddressSanitizer + UndefinedBehaviorSanitizer.
#
# The sanitizer pass exists because the resilience paths are exactly the
# ones that juggle raw state buffers (checkpoint serialization, transport
# snapshot/restore, mid-round rollback) — the code most likely to hide a
# lifetime or aliasing bug that a passing assertion can't see.
#
# Usage: scripts/tier1.sh [--skip-sanitize | --lint]
#   --lint  run only the static-analysis tier (scripts/static_analysis.sh)
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--lint" ]]; then
  exec scripts/static_analysis.sh
fi

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== tier-1: plain build + full ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "${jobs}"

# The FFT plan kernels spell every complex multiply out as real
# arithmetic (DESIGN.md §10.1a). A std::complex multiply compiles to inline
# math plus a NaN test with a __muldc3 fallback that blocks
# vectorisation, so one creeping back into plan.cc shows up as a
# reference to that libgcc routine in the object file.
# (No `grep -q` on these pipes: it exits at the first match, and under
# pipefail the writer's SIGPIPE would turn that match into a failure.)
fft_lib="build/src/libsleepwalk_fft.a"
if ! ar t "${fft_lib}" | grep -x 'plan.cc.o' >/dev/null; then
  echo "tier-1: plan.cc.o not found in ${fft_lib}" >&2
  exit 1
fi
if nm -A "${fft_lib}" | grep -E ':plan\.cc\.o: +U __muldc3$' >/dev/null; then
  echo "tier-1: src/sleepwalk/fft/plan.cc calls __muldc3 (a std::complex" \
    "multiply in the plan kernels; spell it out, see DESIGN.md §10.1a)" >&2
  exit 1
fi

# --timeout: no single test may wedge the suite — a hung worker pool or
# a crash-sweep livelock should fail that one test, not stall CI until
# the job-level timeout reaps the whole run.
ctest --test-dir build --output-on-failure -j "${jobs}" --timeout 300

echo "== tier-1: telemetry smoke (CLI with all three sinks) =="
# A small measure run with every sink enabled: the JSONL event log and
# trace must validate line-by-line, metrics must expose, and two
# same-seed runs must emit byte-identical telemetry and datasets (the
# determinism contract of DESIGN.md §7).
smoke="$(mktemp -d)"
trap 'rm -rf "${smoke}"' EXIT
for run in a b; do
  build/examples/sleepwalk_cli measure \
    --blocks 20 --days 3 --seed 11 --loss 0.05 \
    --out "${smoke}/${run}.slpw" \
    --log-level debug --log-json "${smoke}/${run}.jsonl" \
    --metrics-out "${smoke}/${run}.prom" \
    --trace-out "${smoke}/${run}.trace.jsonl" \
    --trace-chrome "${smoke}/${run}.chrome.json" \
    >"${smoke}/${run}.stdout" 2>/dev/null
done
build/tools/jsonl_check "${smoke}/a.jsonl" "${smoke}/a.trace.jsonl"
build/tools/jsonl_check --chrome-trace "${smoke}/a.chrome.json"
cmp "${smoke}/a.jsonl" "${smoke}/b.jsonl"
cmp "${smoke}/a.trace.jsonl" "${smoke}/b.trace.jsonl"
cmp "${smoke}/a.chrome.json" "${smoke}/b.chrome.json"
cmp "${smoke}/a.prom" "${smoke}/b.prom"
cmp "${smoke}/a.slpw" "${smoke}/b.slpw"
# Sink-free run: telemetry must be inert (identical dataset bytes).
build/examples/sleepwalk_cli measure \
  --blocks 20 --days 3 --seed 11 --loss 0.05 \
  --out "${smoke}/bare.slpw" >/dev/null 2>&1
cmp "${smoke}/a.slpw" "${smoke}/bare.slpw"
grep -q '^sleepwalk_probes_attempted_total ' "${smoke}/a.prom"
echo "telemetry smoke OK"

echo "== tier-1: admin plane smoke (live endpoints + inertness) =="
scripts/admin_smoke.sh build

echo "== tier-1: storage smoke (slck_fsck over fresh artifacts) =="
# A checkpointed run, then fsck: every fresh artifact (dataset, primary
# checkpoint, retained generations) must verify intact; a single flipped
# byte must turn the verdict to exit 1.
build/examples/sleepwalk_cli measure \
  --blocks 20 --days 3 --seed 11 --loss 0.05 \
  --out "${smoke}/ck.slpw" --checkpoint "${smoke}/ck.slck" \
  --checkpoint-keep 3 >/dev/null 2>&1
build/tools/slck_fsck "${smoke}/ck.slpw" "${smoke}/ck.slck" \
  "${smoke}"/ck.slck.g*
cp "${smoke}/ck.slck" "${smoke}/bad.slck"
printf '\xa5' | dd of="${smoke}/bad.slck" bs=1 seek=60 count=1 \
  conv=notrunc 2>/dev/null
if build/tools/slck_fsck "${smoke}/bad.slck" >/dev/null; then
  echo "slck_fsck missed an injected corruption" >&2
  exit 1
fi
# SLPW v3 dataset: fsck names its format, and analyze reads it back
# with exactly the summary recorded in tests/golden/; a flipped byte in
# the values region must fail the verify.
build/tools/slck_fsck --verbose "${smoke}/ck.slpw" | grep "SLPW v3" >/dev/null
build/examples/sleepwalk_cli analyze --in "${smoke}/ck.slpw" \
  >"${smoke}/analyze.txt"
cmp tests/golden/analyze_seed11.txt "${smoke}/analyze.txt"
cp "${smoke}/ck.slpw" "${smoke}/bad3.slpw"
size3="$(wc -c < "${smoke}/bad3.slpw")"
printf '\xa5' | dd of="${smoke}/bad3.slpw" bs=1 seek=$((size3 - 7)) \
  count=1 conv=notrunc 2>/dev/null
if build/tools/slck_fsck "${smoke}/bad3.slpw" >/dev/null; then
  echo "slck_fsck missed a corrupted v3 dataset" >&2
  exit 1
fi
echo "storage smoke OK"

echo "== tier-1: benchmark smoke (sleepbench, all four workloads) =="
# Builds bench/sleepbench against src/ and checks every workload's digest
# against bench/sleepbench/references.txt: a library change that breaks
# the benchmark's build or moves a reference digest fails here.
scripts/sleepbench_smoke.sh

if [[ "${1:-}" == "--skip-sanitize" ]]; then
  echo "== tier-1: sanitizer pass skipped =="
  exit 0
fi

echo "== tier-1: ASan+UBSan build of the fault/resilience, sim, storage, fft and checksum tests =="
cmake -B build-asan -S . \
  -DSLEEPWALK_SANITIZE="address;undefined" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-asan -j "${jobs}" --target faults_test integration_test \
  crash_sweep_test sim_test storage_test core_test crash_recovery_test \
  fft_test fft_stress_test net_test
# sim_test rides along because SimTransport indexes fixed per-octet
# tables by the low address octet and by `day & 1`, negative days
# included; its suites are anchored so no other binary's test matches.
sim_suites='HashUniform|HashGaussian|DiurnalIsOn|IntermittentIsOn|BlockSpec|AddressIsOn|TrueAvailability|Outage|AddressResponds|DiurnalStartOf|SimTransport|Survey|SimWorld|WorldNames|TransportGolden|TransportMemo'
# The storage suites and the snapshot/dataset suites ride along because
# MemEnv files are buffers shared with every region mapped over them,
# snapshots are gathered from borrowed arena spans, the v3 reader turns
# directory fields into typed spans, and the store analyzer walks the
# series rings by their decoded cursors: lifetime and overflow bugs
# there pass assertions and only show under the sanitizers.
storage_suites='Failpoint|FailpointParse|MemEnv|RealEnv|DirName|AtomicWrite|AppendParts|FaultyEnv|Columnar|EveryStep/AtomicWriteFailure|EveryStack/MemEnvMap|EveryAction/AtomicWritePartsFailure'
snapshot_suites='BlockStore|StoreCampaign|StoreAnalyzer|CheckpointColumnar|DatasetColumnar|SnapshotGolden'
# The spectral suites ride along because the pruned Bluestein stages and
# the bit-reversed scatter/gather passes index partial ranges of m-sized
# buffers through a permutation table (DESIGN.md §10.1): a partner slot
# p + 1 or a stage tail past the buffer end is a heap overflow that a
# tolerance check on the output can miss.
fft_suites='PlanGolden|Plan|PlanCache|PlanCacheStress|Bluestein|Forward|ForwardReal|Spectrum|SpectrumOptions|ClassifyDiurnal|ClassifySpectrum|DiurnalGolden'
# CRC32C rides along because its hardware path reads three 8-byte
# streams a third of a block apart and folds their CRCs: a lane
# boundary or tail off by one block reads past the buffer, which a
# matching checksum on in-bounds garbage would not show.
checksum_suites='Crc32c'
ctest --test-dir build-asan --output-on-failure -j "${jobs}" --timeout 600 \
  -R "FaultPlan|GilbertElliott|FaultyTransport|Supervisor|ResilienceReport|Determinism|RestartArtifact|ObsInertness|ObsReconciliation|CrashSweep|^(${sim_suites}|${storage_suites}|${snapshot_suites}|${fft_suites}|${checksum_suites})\\."

echo "== tier-1: all green =="
