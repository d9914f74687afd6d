#!/usr/bin/env python3
"""Check scenario result envelopes against the one Kv_runner row schema.

    python3 tools/check_kv_rows.py --rows N [--traced] ENVELOPE...

Each ENVELOPE is written by `erpc_sim chaos|kv-chaos|cluster-load --out
FILE`; every row is a `Kv_runner.to_json` row. tools/bench_diff.py runs
this check on every replayed chaos, kv_chaos and cluster_load baseline,
with the baseline's row count and tracing. The check fails (exit 1)
unless, in every envelope:
- the benchmark is chaos, kv_chaos or cluster_load;
- there are exactly N rows, and neither the envelope nor any row has a
  violation;
- every row has exactly the row keys below, and every tenant the tenant
  keys (KV tenants also the GET/PUT keys);
- every tenant's P50 <= P99 <= P99.9, every operation completed
  (ok + failed = issued), and its steady-state tally is present and
  within the whole run's counts.
With --traced every row must also carry a hex event-trace digest, a
coverage and a tail attribution with some component's P99 above zero
(chaos and cluster-load runs record the event trace). Without it every
row must write null for those and for analyzed_rpcs (kv-chaos runs
record no event trace).
"""

import argparse
import json
import re

ROW_KEYS = [
    "scenario", "seed", "horizon_ns", "issued", "acked", "failed",
    "raft_drops", "dedup_hits", "restarts", "retransmits", "session_resets",
    "rx_corrupt", "commit_p50_us", "commit_p99_us",
    "gap_windows", "longest_gap_ms", "trace_digest", "digest", "events",
    "analyzed_rpcs", "issued_rpcs", "coverage", "tenants", "attribution",
    "violations",
]
TALLY_KEYS = [
    "issued", "ok", "failed", "shed", "mean_us", "p50_us", "p99_us",
    "p999_us", "retries", "redirects", "untagged_p999_us",
]
TENANT_KEYS = ["tenant", "service", "sources", "offered_rps"] + TALLY_KEYS + ["steady", "tags"]
KV_KEYS = ["get_p50_us", "get_p99_us", "put_p50_us", "put_p99_us", "get_hits", "get_misses"]


def check(path, nrows, traced):
    d = json.load(open(path))
    assert d["benchmark"] in ("chaos", "kv_chaos", "cluster_load"), (path, d["benchmark"])
    assert d["violations"] == [], (path, d["violations"])
    rows = d["rows"]
    assert len(rows) == nrows, (path, [r["scenario"] for r in rows])
    for r in rows:
        name = f"{path}: seed {r.get('seed')} {r.get('scenario')}"
        assert list(r) == ROW_KEYS, (name, list(r))
        assert r["violations"] == [], (name, r["violations"])
        if traced:
            assert re.fullmatch(r"[0-9a-f]{16}", r["digest"] or ""), (name, r["digest"])
            assert r["coverage"] is not None and r["analyzed_rpcs"] is not None, name
            assert r["attribution"] is not None, name
            assert any(c["p99_ns"] > 0 for c in r["attribution"]["components"]), name
        else:
            for k in ("digest", "analyzed_rpcs", "coverage", "attribution"):
                assert r[k] is None, (name, k, r[k])
        for t in r["tenants"]:
            kv = KV_KEYS if t["service"] == "kv" else []
            assert list(t) == TENANT_KEYS + kv + ["timeline"], (name, list(t))
            assert t["p50_us"] <= t["p99_us"] <= t["p999_us"], (name, t["tenant"])
            # Every operation completes inside the settle period.
            assert t["ok"] + t["failed"] == t["issued"], (name, t["tenant"])
            s = t["steady"]
            assert s is not None and list(s) == TALLY_KEYS, (name, t["tenant"])
            for k in ("issued", "ok", "failed", "shed"):
                assert s[k] <= t[k], (name, t["tenant"], k)
    print(f"{path}: {len(rows)} clean runs,",
          sum(t["ok"] for r in rows for t in r["tenants"]), "ops ok, coverage",
          [None if r["coverage"] is None else round(r["coverage"], 3) for r in rows])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rows", type=int, required=True, help="rows every envelope must hold")
    ap.add_argument("--traced", action="store_true", help="every row must carry an attribution")
    ap.add_argument("envelopes", nargs="+")
    args = ap.parse_args()
    for p in args.envelopes:
        check(p, args.rows, args.traced)


if __name__ == "__main__":
    main()
