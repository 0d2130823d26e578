"""Run one ANNODA benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve|browse|churn --seed N \\
        --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it stamps the run (program version, interpreter,
machine, seed, reference-loop time) and names the tail percentile.

The program is imported from ``src/`` next to this directory; without
it the run fails at once, printing no result.
"""

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Where runs keep their corpus, removed when the run ends.
WORK_DIR = ".perfbench_work"

WORKLOADS = ("serve", "browse", "churn")

#: Corpus shape override handed to :mod:`perfbench.gen` (``None`` keeps
#: its default); the benchmark's own tests shrink it.
CORPUS_SHAPE = None

#: Seconds a child process may take before the run is abandoned.
CHILD_TIMEOUT = 170


def _ms(seconds):
    return seconds * 1000.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def generate_corpus(seed, out):
    """Write the corpus in a child process (kept out of peak memory)."""
    command = [sys.executable, "-m", "perfbench.gen", "--seed", str(seed), "--out", str(out)]
    if CORPUS_SHAPE is not None:
        command += ["--shape", json.dumps(CORPUS_SHAPE)]
    subprocess.run(command, cwd=str(ROOT), env=_child_env(), check=True, timeout=CHILD_TIMEOUT)


def remove_work(work):
    """Delete a run's corpus, and the work directory once it is empty."""
    try:
        if work.exists():
            shutil.rmtree(work)
        parent = work.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()
    except OSError as exc:
        print(f"perfbench: could not remove {work}: {exc}", file=sys.stderr)


class Pool:
    """The pooled outcome of a run's segments.

    The median and the throughput are medians over the segments, so a
    burst of load from elsewhere on the machine that slows one segment
    does not move them.  The tail is taken over every sample, since it
    needs more samples than one segment holds.
    """

    def __init__(self):
        from perfbench.workloads import Tally

        self.tally = Tally()
        self.segments = []
        self.setups = []
        self.peak_rss = []
        self.rounds = 0

    def add(self, attempted, failed, wrong, errors, latencies, run_s):
        tally = self.tally
        tally.attempted += attempted
        tally.failed += failed
        tally.wrong += wrong
        tally.errors.extend(errors[: max(0, 5 - len(tally.errors))])
        tally.latencies.extend(latencies)
        self.segments.append((latencies, attempted - failed, run_s))

    def end_to_end(self, workload, per_round):
        """The end-to-end metrics, with the tail percentile they use."""
        from perfbench import measure, workloads

        latencies = self.tally.latencies
        tail = measure.tail_percentile(
            per_round * workloads.MIN_ROUNDS[workload] * workloads.SEGMENTS
        )
        if tail is None or not all(segment[0] for segment in self.segments):
            raise workloads.RunFailure(f"{len(latencies)} samples are too few for a tail")
        return tail, {
            "setup_s": _metric(statistics.median(self.setups), "s"),
            "latency_p50_ms": _metric(_ms(statistics.median(
                statistics.median(segment) for segment, _, _ in self.segments
            )), "ms"),
            "latency_tail_ms": _metric(_ms(measure.percentile(latencies, tail)), "ms"),
            "throughput_qps": _metric(statistics.median(
                _ratio(done, run_s) for _, done, run_s in self.segments
            ), "1/s"),
            "peak_rss_mb": _metric(statistics.median(self.peak_rss), "MB"),
        }


def replay(ctx, ops, writes=None):
    """Replay the run's rounds (and, on churn, its ``writes``) in process
    on two fresh federations that take turns round by round, so drift
    in the machine's speed reaches both alike: one traced, one untraced
    that skips the result cache, as a traced ask does.  Runs until the
    traced side has spent ``--seconds / 2`` in the program.  Returns
    ``(traced, untraced)``."""
    from perfbench import workloads
    from perfbench.oracle import Oracle

    workload = ctx["workload"]
    config = workloads.churn_config() if workload == "churn" else None

    def federation(recorder):
        return workloads.Direct(
            workloads.load(ctx["snapshot"], config), Oracle(ctx["payload"]),
            recorder, use_cache=False,
        )

    def one_round(direct, index):
        if workload == "churn":
            workloads.churn_pass(direct, ops, ctx["seed"], 0, 1, writes=writes[index:index + 1])
        elif workload == "browse":
            workloads.browse_pass(direct, ops, 0, 1, 1)
        else:
            workloads.ask_pass(direct, ops, 0, 1, 1)

    traced, untraced = federation(ctx["recorder"]), federation(None)
    limit = len(writes) if workload == "churn" else None
    for index in workloads.rounds(traced.clock, ctx["seconds"] / 2, 1, limit):
        one_round(traced, index)
        one_round(untraced, index)
    return traced, untraced


def traced_layers(ctx, traced, untraced):
    """The per-layer metrics the replays yield (means per operation)."""
    from perfbench import layers, workloads

    ops = traced.traced_ops
    metrics = {
        name: _metric(_ms(_ratio(traced.layer_s.get(name, 0.0), ops)), "ms")
        for name in layers.SPAN_LAYER_NAMES + (
            "navigation.render_ms", "navigation.follow_ms",
            "lorel.query_ms", "analysis.go_enrichment_ms",
        )
    }
    metrics["sources.rows_per_gene"] = _metric(_ratio(traced.rows, traced.genes), "rows/gene")
    metrics["sources.selective_rows_per_gene"] = _metric(
        _ratio(traced.selective_rows, traced.selective_genes), "rows/gene"
    )
    selective = untraced.selective_latencies
    metrics["questions.selective_p50_ms"] = _metric(
        _ms(statistics.median(selective)) if selective else 0.0, "ms"
    )
    metrics["trace.wall_ms"] = _metric(_ms(_ratio(traced.traced_wall_s, ops)), "ms")
    metrics["trace.unattributed_ms"] = _metric(_ms(_ratio(traced.unattributed_s, ops)), "ms")
    # Only operations the untraced side executed too: a traced ask never
    # reads a cached answer, so a cached replay would not compare.
    pairs = [
        (traced_s, untraced_s)
        for traced_s, untraced_s, executed in zip(
            traced.traced_latencies, untraced.tally.latencies, untraced.executed
        )
        if executed
    ]
    metrics["trace.overhead_ratio"] = _metric(
        _ratio(statistics.median(t for t, _ in pairs), statistics.median(u for _, u in pairs)),
        "ratio",
    )
    config = workloads.churn_config() if ctx["workload"] == "churn" else None
    load_s, register_s = workloads.setup_layers(ctx["snapshot"], config)
    metrics["sources.load_s"] = _metric(load_s, "s")
    metrics["mediator.register_s"] = _metric(register_s, "s")
    return metrics


def run_serve(ctx):
    from perfbench import measure, mix, workloads
    from perfbench.oracle import Oracle

    oracle = Oracle(ctx["payload"])
    ops = mix.serve_round(oracle, ctx["seed"])
    expected = workloads.Expected(oracle)
    clients = measure.nproc()
    pool = Pool()
    elapsed, overhead = [], []
    service = {"result_cache_hits": 0, "requests_completed": 0, "indexes_rebuilt": 0}
    for _ in range(workloads.SEGMENTS):
        server = workloads.Server(ROOT, ctx["snapshot"], clients, ctx["work"] / "serve.log")
        try:
            pool.setups.append(server.start())
            records, wall_s = workloads.serve_pass(
                server, ops, ctx["seconds"] / workloads.SEGMENTS,
                workloads.MIN_ROUNDS["serve"], clients,
            )
            _, snapshot = server.get("/metrics")
            pool.peak_rss.append(server.peak_rss_mb())
        finally:
            server.stop()
        tally, segment_elapsed, segment_overhead = workloads.check_serve(records, expected)
        pool.add(tally.attempted, tally.failed, tally.wrong, tally.errors,
                 tally.latencies, wall_s)
        pool.rounds += len(records) // len(ops)
        elapsed += segment_elapsed
        overhead += segment_overhead
        service["result_cache_hits"] += snapshot["service"]["result_cache_hits"]
        service["requests_completed"] += snapshot["service"]["requests_completed"]
        service["indexes_rebuilt"] += snapshot["pipeline"]["indexes_rebuilt"]
    tail, e2e = pool.end_to_end("serve", len(ops))
    out = {"pool": pool, "tallies": [pool.tally], "e2e": e2e, "tail_percentile": tail}
    if ctx["trace"]:
        traced, untraced = replay(ctx, ops)
        layer = traced_layers(ctx, traced, untraced)
        layer.update({
            "service.elapsed_ms": _metric(_ms(statistics.fmean(elapsed)), "ms"),
            "service.overhead_ms": _metric(_ms(statistics.fmean(overhead)), "ms"),
            "mediator.result_cache_hit_ratio": _metric(
                _ratio(service["result_cache_hits"], service["requests_completed"]), "ratio"
            ),
            "mediator.artifact_hit_ratio": _metric(0.0, "ratio"),
            "mediator.artifact_entries": _metric(0, "count"),
            "sources.index_builds": _metric(service["indexes_rebuilt"], "count"),
        })
        out["layers"] = layer
        out["tallies"] += [traced.tally, untraced.tally]
        out["sum_errors"] = traced.sum_errors
    return out


def run_segment_process(spec):
    """Run one direct-workload segment in a fresh process."""
    done = subprocess.run(
        [sys.executable, "-m", "perfbench.segment", json.dumps(spec)],
        cwd=str(ROOT), env=_child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT,
    )
    if done.returncode != 0:
        from perfbench.workloads import RunFailure

        raise RunFailure(f"segment failed: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_direct(ctx):
    from perfbench import mix, workloads
    from perfbench.oracle import Oracle

    workload = ctx["workload"]
    oracle = Oracle(ctx["payload"])
    if workload == "browse":
        ops = mix.browse_round(oracle, ctx["seed"])
        per_round = len(ops)
    else:
        ops = mix.churn_hot_set(oracle, ctx["seed"])
        per_round = len(mix.churn_reads(ops, ctx["seed"]))
    pool = Pool()
    hits = reads = lookups = artifact_hits = entries = index_builds = 0
    writes = []
    for _ in range(workloads.SEGMENTS):
        segment = run_segment_process({
            "workload": workload,
            "seed": ctx["seed"],
            "seconds": ctx["seconds"] / workloads.SEGMENTS,
            "min_rounds": workloads.MIN_ROUNDS[workload],
            "setup_repeats": workloads.SETUP_REPEATS[workload],
            "snapshot": str(ctx["snapshot"]),
            "oracle": str(ctx["work"] / "oracle.json"),
            "ops": ops,
        })
        pool.add(segment["attempted"], segment["failed"], segment["wrong"],
                 segment["errors"], segment["latencies"], segment["run_s"])
        pool.setups += segment["setups"]
        pool.peak_rss.append(segment["peak_rss_mb"])
        pool.rounds += segment["rounds"]
        hits += segment["cache_hits"]
        reads += segment["reads"]
        artifacts = segment["artifacts"]
        artifact_hits += artifacts.get("hits", 0)
        lookups += artifacts.get("hits", 0) + artifacts.get("misses", 0)
        entries = max(entries, artifacts.get("entries", 0))
        index_builds += segment["index_builds"]
        if len(segment["writes"]) > len(writes):
            writes = segment["writes"]
    tail, e2e = pool.end_to_end(workload, per_round)
    out = {"pool": pool, "tallies": [pool.tally], "e2e": e2e, "tail_percentile": tail}
    if ctx["trace"]:
        traced, untraced = replay(ctx, ops, writes if workload == "churn" else None)
        layer = traced_layers(ctx, traced, untraced)
        layer.update({
            "service.elapsed_ms": _metric(0.0, "ms"),
            "service.overhead_ms": _metric(0.0, "ms"),
            "mediator.result_cache_hit_ratio": _metric(_ratio(hits, reads), "ratio"),
            "mediator.artifact_hit_ratio": _metric(_ratio(artifact_hits, lookups), "ratio"),
            "mediator.artifact_entries": _metric(entries, "count"),
            "sources.index_builds": _metric(index_builds, "count"),
        })
        out["layers"] = layer
        out["tallies"] += [traced.tally, untraced.tally]
        out["sum_errors"] = traced.sum_errors
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one ANNODA benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import measure
    from repro.trace.recorder import TraceRecorder

    work = ROOT / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    ticks = measure.cpu_ticks()
    try:
        generate_corpus(args.seed, work)
        ctx = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "work": work,
            "snapshot": work / "snapshot",
            "payload": json.loads((work / "oracle.json").read_text(encoding="utf-8")),
            "recorder": TraceRecorder,
        }
        result = (run_serve if args.workload == "serve" else run_direct)(ctx)
    finally:
        remove_work(work)

    steal = measure.steal_share(ticks, measure.cpu_ticks())
    tallies = result["tallies"]
    print(json.dumps({
        "stamp": measure.stamp(ROOT, args.workload, args.seed, steal),
        "tail_percentile": result["tail_percentile"],
        "samples": len(result["pool"].tally.latencies),
        "rounds": result["pool"].rounds,
        "errors": [error for tally in tallies for error in tally.errors],
        "layer_sum_errors": len(result.get("sum_errors", [])),
    }, sort_keys=True))
    print(json.dumps({
        "correct": all(tally.wrong == 0 for tally in tallies),
        "attempted": sum(tally.attempted for tally in tallies),
        "failed": sum(tally.failed for tally in tallies),
        "metrics": result["layers"] if args.trace else result["e2e"],
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
