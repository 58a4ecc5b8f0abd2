#!/usr/bin/env bash
# Smoke-runs the five gated benches and checks their JSON records against
# the committed snapshots in bench/ with tools/bench_gate.py.
#
# Usage: tools/bench_smoke_gates.sh <build-dir> <out-dir>
#
# <build-dir> holds the built benches (<build-dir>/bench/bench_*). Each
# bench's stdout lands in <out-dir>/<name>.out and its records in
# <out-dir>/<bench>.smoke.jsonl. Exits non-zero when a bench fails or a
# gate trips.
#
# Google Benchmark loops are skipped, but the pool matrix and GCM matrix run
# at the same workload as the committed snapshots (256 blocks/tenant), so
# the gate compares blocks/device-cycle cell by cell. The device model is
# deterministic, so the 25% tolerance only trips on real code-induced
# throughput changes; regenerate the snapshot when the change is
# intentional. Every pool/service record also carries the conservation
# identity, checked exactly: each offered request ends in exactly one
# bucket. Throughput records also carry the service's own counters, so
# their offers and sheds are checked against those.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <build-dir> <out-dir>" >&2
  exit 2
fi
build=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
root=$(cd "$(dirname "$0")/.." && pwd)
gate() { python3 "$root/tools/bench_gate.py" "$@"; }

CONSERVATION=conservation.offered=conservation.ok+conservation.suppressed+conservation.shed+conservation.rejected+conservation.failed+conservation.still_queued
# The campaign oracle's counts (soc::OracleCounts), spliced flat into the
# throughput and GCM records: every Ok completion is golden AES/GCM of its
# own input, and every ticket came back exactly once and in per-tenant order.
ORACLE=wrong_outputs,wrong_tags,duplicate_resolutions,unknown_tickets,out_of_order,unresolved

# smoke <bench> <stdout name> [VAR=value ...]: one smoke run with exactly
# the given bench variables set.
smoke() {
  local bench=$1 log=$2
  shift 2
  env -u AESIFC_BENCH_SMOKE -u AESIFC_BENCH_BLOCKS "$@" \
    "$build/bench/$bench" | tee "$out/$log" | grep '^JSON ' | cut -c6- \
    > "$out/$bench.smoke.jsonl"
}

smoke bench_throughput tp.out AESIFC_BENCH_SMOKE=1 AESIFC_BENCH_BLOCKS=256
smoke bench_gcm gcm.out AESIFC_BENCH_SMOKE=1 AESIFC_BENCH_BLOCKS=256
smoke bench_fault_campaign fc.out AESIFC_BENCH_SMOKE=1
smoke bench_dma dma.out AESIFC_BENCH_SMOKE=1
smoke bench_service_overload so.out

cd "$out"

# Pool throughput vs snapshot.
gate \
  --fresh bench_throughput.smoke.jsonl \
  --snapshot "$root/bench/BENCH_throughput.json" \
  --bench throughput_pool --keys shards,batch \
  --metric blocks_per_device_cycle --tolerance 0.25 \
  --assert-zero "$ORACLE" \
  --assert-eq "$CONSERVATION" \
  --assert-eq conservation.offered=stats.offered \
  --assert-eq conservation.shed=stats.shed \
  --assert-eq conservation.ok=stats.completed_hw+stats.completed_fallback

# GCM throughput vs snapshot.
gate \
  --fresh bench_gcm.smoke.jsonl \
  --snapshot "$root/bench/BENCH_gcm.json" \
  --bench gcm --keys shards,batch,mode \
  --metric blocks_per_device_cycle --tolerance 0.25 \
  --assert-zero "$ORACLE" \
  --assert-eq "$CONSERVATION"

# GCM exact replay. The matrix is seeded and the device model
# deterministic, so every cell reproduces its device cycles and its
# blocks/device-cycle exactly: any drift means a change moved what the
# AEAD path does on the device, not just how fast the host simulates it.
for metric in device_cycles blocks_per_device_cycle; do
  gate \
    --fresh bench_gcm.smoke.jsonl \
    --snapshot "$root/bench/BENCH_gcm.json" \
    --bench gcm --keys shards,batch,mode \
    --metric "$metric" --tolerance 0
done

# GCM parity (device >= host-GHASH hybrid in every cell). Every record
# carries its (shards, batch) cell's host_ghash figure as
# hybrid_blocks_per_device_cycle: on-device GCM, with the tag work on the
# device, must not fall behind the split design that leaves H in host
# memory. (A host_ghash record meets its own figure.)
gate \
  --fresh bench_gcm.smoke.jsonl \
  --snapshot "$root/bench/BENCH_gcm.json" \
  --bench gcm --keys shards,batch,mode \
  --metric blocks_per_device_cycle --tolerance 0.25 \
  --assert-ge blocks_per_device_cycle:hybrid_blocks_per_device_cycle

# Pool resilience vs snapshot (availability + invariants). Availability
# within tolerance of the snapshot, PLUS the hard invariants:
# wrong_key_uses == 0 (no request ever served under a stale/zeroized key
# during evacuation), untouched shards' traces bit-identical, and aggregate
# availability >= (shards-1)/shards while one shard is quarantined.
gate \
  --fresh bench_fault_campaign.smoke.jsonl \
  --snapshot "$root/bench/BENCH_pool_resilience.json" \
  --bench pool_resilience --keys scenario,shards,tenants \
  --metric aggregate_availability --tolerance 0.25 \
  --assert-zero wrong_key_uses,untouched_trace_mismatch \
  --assert-ge aggregate_availability:availability_floor \
  --assert-eq "$CONSERVATION"

# Fault campaign vs snapshot (ok ops + fail-secure + conservation). The
# hardened device campaign must never release a block or an auth tag that
# differs from golden AES/GCM.
gate \
  --fresh bench_fault_campaign.smoke.jsonl \
  --snapshot "$root/bench/BENCH_fault_campaign.json" \
  --bench fault_campaign --keys hardened,fault_rate \
  --metric ok --tolerance 0.25 \
  --assert-zero wrong_block_releases,wrong_tag_releases \
  --assert-eq "$CONSERVATION"

# Unhardened fault campaign vs snapshot (ok ops + conservation). The control
# rows: the same campaign on the unhardened device, wrong releases expected
# and reported, not gated to zero.
gate \
  --fresh bench_fault_campaign.smoke.jsonl \
  --snapshot "$root/bench/BENCH_fault_campaign.json" \
  --bench fault_campaign_unhardened --keys hardened,fault_rate \
  --metric ok --tolerance 0.25 \
  --assert-eq "$CONSERVATION"

# Fault campaign exact replay. The campaign is seeded and the device model
# deterministic, so both row sets reproduce their cycle counts, retries,
# fault events and wrong releases exactly: any drift means a change moved
# where an upset lands or what the device does with it. The unhardened
# rows release flipped blocks, so their wrong-release counts pin where each
# flip landed.
for row in fault_campaign fault_campaign_unhardened; do
  for metric in device_cycles retries fault_events wrong_block_releases \
      wrong_tag_releases; do
    gate \
      --fresh bench_fault_campaign.smoke.jsonl \
      --snapshot "$root/bench/BENCH_fault_campaign.json" \
      --bench "$row" --keys hardened,fault_rate \
      --metric "$metric" --tolerance 0
  done
done

# Service overload vs snapshot. One record per phase of
# soc::runServiceCampaign (healthy overload, fault storm, recovery). Its
# `service` object is ServiceStats::toJson(), so the service's own offers,
# sheds and completions are checked against the bench's conservation
# buckets. Every completion goes through the campaign oracle: wrong outputs,
# second resolutions, completions for tickets never admitted and tickets
# fetched ahead of an older one stay 0, the oracle's unresolved tickets are
# exactly the service's queued ones, and that count is pinned per phase, so
# the recovery phase ends with every ticket resolved.
gate \
  --fresh bench_service_overload.smoke.jsonl \
  --snapshot "$root/bench/BENCH_service_overload.json" \
  --bench service_overload --keys phase \
  --metric blocks_per_cycle --tolerance 0.25 \
  --assert-zero wrong_outputs,duplicate_resolutions,unknown_tickets,out_of_order \
  --assert-eq "$CONSERVATION" \
  --assert-eq conservation.offered=service.offered \
  --assert-eq conservation.shed=service.shed \
  --assert-eq conservation.ok=service.completed_hw+service.completed_fallback \
  --assert-eq unresolved=conservation.still_queued
gate \
  --fresh bench_service_overload.smoke.jsonl \
  --snapshot "$root/bench/BENCH_service_overload.json" \
  --bench service_overload --keys phase \
  --metric unresolved --tolerance 0

# DMA path throughput vs snapshot. Cell-by-cell regression gate over
# {ring, service, service_ring} x batch {1,4,16,64}, PLUS the ring
# amortization claim: with >= 16 blocks per descriptor, total ring overhead
# (fetch, validation, completion write) stays under 80 cycles per
# descriptor — blocks_per_device_cycle >= batch / (batch + 80).
gate \
  --fresh bench_dma.smoke.jsonl \
  --snapshot "$root/bench/BENCH_dma.json" \
  --bench dma_path --keys path,batch \
  --metric blocks_per_device_cycle --tolerance 0.25 \
  --assert-ge blocks_per_device_cycle:amortization_floor

# Ring fault campaign invariants (fail-secure). The hardened descriptor-ring
# campaign (16 seeds, scripted torn ownership / chain loops / OOB
# next-pointers / completion overflow / stalled ring / stale generations /
# TOCTOU rewrites / a reset of a channel overlapping another, plus random
# ring bit flips) must never release a wrong plaintext, write across a
# label boundary, leave a refused transfer partially written, or let one
# channel's reset disturb another channel's chain. The campaign is
# deterministic per seed, so completed_ok is gated exactly: any drift means
# the data path changed.
gate \
  --fresh bench_dma.smoke.jsonl \
  --snapshot "$root/bench/BENCH_dma.json" \
  --bench dma_ring_campaign --keys seed \
  --metric completed_ok --tolerance 0.0 \
  --assert-zero wrong_plaintext_releases,cross_label_writes,partial_writes,reset_isolation_failures

echo "bench smoke gates: all passed"
