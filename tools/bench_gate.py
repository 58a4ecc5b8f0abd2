#!/usr/bin/env python3
"""Benchmark regression gate.

Compares fresh bench records (the `JSON `-prefixed stdout lines, one JSON
object per line) against a committed snapshot file of the form

    {"snapshot": ..., "date": ..., "command": ..., "records": [...]}

Records are matched on the --keys fields; the --metric of each matched pair
must agree within --tolerance (relative to the snapshot value). The device
model is a deterministic cycle-accurate simulation, so the metric only moves
when the code changes — the tolerance absorbs intentional small drift while
catching real throughput regressions.

Exit status: 0 = gate passed, 1 = regression / missing record, 2 = usage.

Examples:
    bench_gate.py --fresh tp.jsonl --snapshot bench/BENCH_throughput.json \
        --bench throughput_pool --keys shards,batch
    bench_gate.py --fresh gcm.jsonl --snapshot bench/BENCH_gcm.json \
        --bench gcm --keys shards,batch,mode \
        --assert-eq conservation.offered=conservation.ok+conservation.shed
"""

import argparse
import json
import sys


def load_records(path, bench):
    """Load records from a snapshot file or a JSON-lines file."""
    with open(path) as f:
        text = f.read()
    text = text.strip()
    if not text:
        return []
    # Whole-file JSON first (snapshot format), then fall back to JSON lines.
    try:
        doc = json.loads(text)
        if isinstance(doc, dict) and "records" in doc:
            recs = doc["records"]
        elif isinstance(doc, list):
            recs = doc
        else:
            recs = [doc]
        return [r for r in recs if r.get("bench") == bench]
    except json.JSONDecodeError:
        pass
    recs = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("JSON "):
            line = line[5:]
        if not line.startswith("{"):
            continue
        r = json.loads(line)
        if r.get("bench") == bench:
            recs.append(r)
    return recs


def key_of(record, keys):
    return tuple(record.get(k) for k in keys)


def field(record, path):
    """Value at a dotted path (e.g. conservation.offered), or None."""
    v = record
    for part in path.split("."):
        if not isinstance(v, dict):
            return None
        v = v.get(part)
    return v


def parse_eq(spec):
    """'LHS=A+B+C' -> ('LHS', ['A', 'B', 'C']), or None if malformed."""
    lhs, sep, rhs = spec.partition("=")
    terms = [t.strip() for t in rhs.split("+")]
    if not sep or not lhs.strip() or not all(terms):
        return None
    return lhs.strip(), terms


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fresh", required=True,
                    help="fresh records: JSON-lines file (JSON prefix ok)")
    ap.add_argument("--snapshot", required=True,
                    help="committed snapshot JSON file")
    ap.add_argument("--bench", required=True,
                    help="value of the 'bench' field to gate on")
    ap.add_argument("--keys", required=True,
                    help="comma-separated fields identifying a record")
    ap.add_argument("--metric", default="blocks_per_device_cycle")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="max relative deviation from snapshot (default 0.25)")
    ap.add_argument("--assert-zero", default="",
                    help="comma-separated fields that must equal 0 in every "
                         "fresh record (hard invariants, e.g. wrong_key_uses)")
    ap.add_argument("--assert-ge", action="append", default=[],
                    help="METRIC:FLOOR_FIELD — every fresh record must have "
                         "record[METRIC] >= record[FLOOR_FIELD] (e.g. "
                         "aggregate_availability:availability_floor); "
                         "repeatable")
    ap.add_argument("--assert-eq", action="append", default=[],
                    help="FIELD=TERM+TERM+... — every fresh record must have "
                         "FIELD exactly equal to the sum of the TERM fields "
                         "(dotted paths reach nested objects, e.g. the "
                         "conservation identity); repeatable")
    args = ap.parse_args()
    keys = [k.strip() for k in args.keys.split(",") if k.strip()]
    if not keys:
        print("bench_gate: --keys must name at least one field",
              file=sys.stderr)
        return 2

    snap = load_records(args.snapshot, args.bench)
    fresh = load_records(args.fresh, args.bench)
    if not snap:
        print(f"bench_gate: no '{args.bench}' records in {args.snapshot}",
              file=sys.stderr)
        return 1
    fresh_by_key = {key_of(r, keys): r for r in fresh}

    width = max(len(str(key_of(r, keys))) for r in snap)
    failures = 0
    print(f"bench_gate: {args.bench}.{args.metric}, "
          f"tolerance +/-{args.tolerance:.0%} vs {args.snapshot}")
    for s in snap:
        k = key_of(s, keys)
        label = str(k).ljust(width)
        f = fresh_by_key.get(k)
        if f is None:
            print(f"  {label}  MISSING (no fresh record)")
            failures += 1
            continue
        want = s.get(args.metric)
        got = f.get(args.metric)
        if not isinstance(want, (int, float)) or not isinstance(
                got, (int, float)):
            print(f"  {label}  MISSING metric '{args.metric}'")
            failures += 1
            continue
        if want == 0:
            delta = 0.0 if got == 0 else float("inf")
        else:
            delta = (got - want) / want
        verdict = "ok" if abs(delta) <= args.tolerance else "FAIL"
        if verdict == "FAIL":
            failures += 1
        print(f"  {label}  snapshot={want:<10g} fresh={got:<10g} "
              f"delta={delta:+.1%}  {verdict}")

    # Hard invariants on the FRESH records: tolerance bands are for
    # throughput drift, not for safety counters — those must be exact.
    zero_fields = [z.strip() for z in args.assert_zero.split(",") if z.strip()]
    ge_pairs = []
    for spec in args.assert_ge:
        parts = spec.split(":")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            print(f"bench_gate: bad --assert-ge spec '{spec}' "
                  "(want METRIC:FLOOR_FIELD)", file=sys.stderr)
            return 2
        ge_pairs.append((parts[0], parts[1]))
    eq_specs = []
    for spec in args.assert_eq:
        parsed = parse_eq(spec)
        if parsed is None:
            print(f"bench_gate: bad --assert-eq spec '{spec}' "
                  "(want FIELD=TERM+TERM...)", file=sys.stderr)
            return 2
        eq_specs.append(parsed)
    for f in fresh:
        label = str(key_of(f, keys)).ljust(width)
        for z in zero_fields:
            v = f.get(z)
            if v != 0:
                print(f"  {label}  INVARIANT {z}={v} (must be 0)")
                failures += 1
            else:
                print(f"  {label}  invariant {z}=0  ok")
        for metric, floor_field in ge_pairs:
            got = f.get(metric)
            floor = f.get(floor_field)
            if not isinstance(got, (int, float)) or not isinstance(
                    floor, (int, float)):
                print(f"  {label}  INVARIANT missing field for "
                      f"{metric}>={floor_field}")
                failures += 1
            elif got < floor:
                print(f"  {label}  INVARIANT {metric}={got:g} < "
                      f"{floor_field}={floor:g}")
                failures += 1
            else:
                print(f"  {label}  invariant {metric}={got:g} >= "
                      f"{floor_field}={floor:g}  ok")
        for lhs, terms in eq_specs:
            vals = [field(f, p) for p in [lhs] + terms]
            if not all(isinstance(v, int) for v in vals):
                print(f"  {label}  INVARIANT missing integer field for "
                      f"{lhs}={'+'.join(terms)}")
                failures += 1
            elif vals[0] != sum(vals[1:]):
                print(f"  {label}  INVARIANT {lhs}={vals[0]} != "
                      f"{'+'.join(terms)}={sum(vals[1:])}")
                failures += 1
            else:
                print(f"  {label}  invariant {lhs}={vals[0]} == "
                      f"{'+'.join(terms)}  ok")

    extra = [k for k in fresh_by_key if k not in
             {key_of(s, keys) for s in snap}]
    if extra:
        print(f"  note: {len(extra)} fresh record(s) not in snapshot "
              "(not gated): " + ", ".join(str(k) for k in sorted(
                  extra, key=str)))
    if failures:
        print(f"bench_gate: FAILED ({failures} cell(s) out of tolerance); "
              "if the change is intentional, regenerate the snapshot")
        return 1
    print(f"bench_gate: passed ({len(snap)} cell(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
