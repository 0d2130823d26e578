"""One measured segment of the ``browse`` or ``churn`` workload, run in a
process of its own (``python3 -m perfbench.segment SPEC_JSON``).

A run measures ``SEGMENTS`` segments in fresh processes one after the
other and pools them.  The same program runs at different speeds in
different processes on a shared machine (loading one snapshot took
55 ms in one process and 88 ms in the next), so pooling several
processes keeps one slow or fast process from setting a run's figures.

The segment loads the federation from the snapshot (timing the loads),
runs whole rounds of the operations the parent chose, checks every
answer against the oracle, and prints one JSON line with what it
measured.
"""

import json
import pathlib
import sys


def run_segment(spec):
    from perfbench import measure, workloads
    from perfbench.oracle import Oracle

    workload = spec["workload"]
    snapshot = spec["snapshot"]
    payload = json.loads(pathlib.Path(spec["oracle"]).read_text(encoding="utf-8"))
    config = workloads.churn_config() if workload == "churn" else None
    setups = workloads.direct_setup_times(snapshot, config, spec["setup_repeats"])
    annoda = workloads.load(snapshot, config)
    direct = workloads.Direct(annoda, Oracle(payload))
    ops = [tuple(op) for op in spec["ops"]]
    before = workloads.source_counters(annoda)
    writes = []
    if workload == "browse":
        workloads.browse_pass(direct, ops, spec["seconds"], spec["min_rounds"])
        rounds = direct.tally.attempted // len(ops)
    else:
        writes = workloads.churn_pass(
            direct, ops, spec["seed"], spec["seconds"], spec["min_rounds"]
        )
        rounds = len(writes)
    after = workloads.source_counters(annoda)
    artifacts = annoda.mediator.artifacts.stats() if annoda.mediator.artifacts else {}
    tally = direct.tally
    return {
        "latencies": tally.latencies,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "errors": tally.errors,
        "run_s": direct.clock.elapsed,
        "setups": setups,
        "peak_rss_mb": measure.peak_rss_mb(),
        "cache_hits": direct.cache_hits,
        "reads": direct.reads,
        "artifacts": artifacts,
        "index_builds": after["index_builds"] - before["index_builds"],
        "writes": writes,
        "rounds": rounds,
    }


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    print(json.dumps(run_segment(json.loads(argv[0]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
