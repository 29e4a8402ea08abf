#!/usr/bin/env bash
# Admin-plane smoke: boot a real campaign with the loopback admin server
# attached, scrape every endpoint while it runs, render it with
# sleeptop, validate the Chrome trace artifact, and prove the whole
# admin plane was inert (byte-identical dataset vs an unobserved run).
#
# This is the end-to-end complement to serve_test (which drives the
# server over synthetic routes): here the routes are the real
# /metrics, /healthz, /statusz and /tracez wired to a live
# CampaignLedger, Registry and Tracer mid-campaign.
#
# Usage: scripts/admin_smoke.sh [build-dir]      (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
CLI="${BUILD_DIR}/examples/sleepwalk_cli"
for tool in "${CLI}" "${BUILD_DIR}/tools/sleeptop" "${BUILD_DIR}/tools/jsonl_check"; do
  if [[ ! -x "${tool}" ]]; then
    echo "admin_smoke: missing ${tool}; build first (cmake --build ${BUILD_DIR} -j)" >&2
    exit 2
  fi
done

smoke="$(mktemp -d)"
cli_pid=""
cleanup() {
  [[ -n "${cli_pid}" ]] && kill "${cli_pid}" 2>/dev/null || true
  rm -rf "${smoke}"
}
trap cleanup EXIT

# A campaign that outlives the scrapes below. At 400 blocks it ended in
# ~0.35 s, sometimes before sleeptop connected (3 failures in 20 runs);
# 4,000 blocks run for over a second in an unoptimized build, several
# times the ~0.1-0.3 s the scrapes take. The inertness run below uses
# the same flags, so both runs are the same campaign.
run_flags=(--blocks 4000 --days 14 --seed 11 --loss 0.05 --workers 2)

echo "== admin_smoke: campaign with --admin-port 0 =="
"${CLI}" measure "${run_flags[@]}" \
  --out "${smoke}/admin.slpw" \
  --trace-chrome "${smoke}/trace.chrome.json" \
  --admin-port 0 --admin-port-file "${smoke}/port" \
  >"${smoke}/admin.stdout" 2>"${smoke}/admin.stderr" &
cli_pid=$!

# The CLI writes the ephemeral port once the server is listening.
port=""
for _ in $(seq 1 100); do
  if [[ -s "${smoke}/port" ]]; then
    port="$(cat "${smoke}/port")"
    break
  fi
  if ! kill -0 "${cli_pid}" 2>/dev/null; then
    echo "admin_smoke: campaign exited before publishing its port" >&2
    cat "${smoke}/admin.stderr" >&2
    exit 1
  fi
  sleep 0.1
done
[[ -n "${port}" ]] || { echo "admin_smoke: no port file after 10s" >&2; exit 1; }
echo "admin server on 127.0.0.1:${port}"

# Scrape every endpoint mid-campaign and validate each payload.
curl -fsS "http://127.0.0.1:${port}/healthz" >"${smoke}/healthz"
[[ "$(cat "${smoke}/healthz")" == "ok" ]] \
  || { echo "admin_smoke: /healthz body was not 'ok'" >&2; exit 1; }
curl -fsS "http://127.0.0.1:${port}/statusz" >"${smoke}/statusz"
grep -q '"attached":true' "${smoke}/statusz" \
  || { echo "admin_smoke: /statusz reports no campaign attached" >&2; exit 1; }
grep -q '"blocks_total":' "${smoke}/statusz" \
  || { echo "admin_smoke: /statusz lacks campaign fields" >&2; exit 1; }
curl -fsS "http://127.0.0.1:${port}/metrics" >"${smoke}/metrics"
grep -q '^sleepwalk_' "${smoke}/metrics" \
  || { echo "admin_smoke: /metrics exposes no sleepwalk_ series" >&2; exit 1; }
curl -fsS "http://127.0.0.1:${port}/tracez" >"${smoke}/tracez"
head -c1 "${smoke}/tracez" | grep -q '\[' \
  || { echo "admin_smoke: /tracez is not a JSON array" >&2; exit 1; }
# 404 and HEAD behave like an HTTP server should.
curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:${port}/nope" \
  | grep -q '^404$' || { echo "admin_smoke: unknown path not 404" >&2; exit 1; }
curl -fsSI "http://127.0.0.1:${port}/healthz" >/dev/null

# sleeptop renders one frame from the same live endpoint.
"${BUILD_DIR}/tools/sleeptop" --port "${port}" --once >"${smoke}/top"
grep -q '^sleepwalk campaign @ 127.0.0.1:' "${smoke}/top" \
  || { echo "admin_smoke: sleeptop did not render a status frame" >&2; exit 1; }
echo "live endpoints OK"

wait "${cli_pid}"
cli_pid=""

# The Chrome trace artifact must pass the tier-1 checker.
"${BUILD_DIR}/tools/jsonl_check" --chrome-trace "${smoke}/trace.chrome.json"

echo "== admin_smoke: observer inertness (dataset bytes) =="
"${CLI}" measure "${run_flags[@]}" --out "${smoke}/bare.slpw" \
  >/dev/null 2>&1
cmp "${smoke}/admin.slpw" "${smoke}/bare.slpw"
echo "admin_smoke OK"
