"""Reference figure, not gated: the serve workload at ``--shards 1``
against ``--shards 2``, CPU only (no modeled per-row sleep).

``annoda --snapshot-dir DIR --shards N serve`` serves unsharded whatever
``N`` is (``Annoda.from_directory`` does not apply ``AnnodaConfig.shards``),
so both services here generate the benchmark corpus themselves from the
same seed and shape (``--seed --loci --go-terms --omim-entries``); the
oracle is the benchmark's own.  Run from the repository root::

    python3 -m perfbench.shards --seed 1 --seconds 20

It prints one JSON line per shard count with throughput and latency.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def measure_shards(seed, seconds, shards, work):
    from perfbench import gen, measure, mix, workloads
    from perfbench.oracle import Oracle

    gen.generate(seed, work)
    oracle = Oracle(json.loads((work / "oracle.json").read_text(encoding="utf-8")))
    ops = mix.serve_round(oracle, seed)
    clients = measure.nproc()
    corpus_args = [
        "--seed", str(seed),
        "--loci", str(gen.CORPUS["loci"]),
        "--go-terms", str(gen.CORPUS["go_terms"]),
        "--omim-entries", str(gen.CORPUS["omim_entries"]),
        "--shards", str(shards),
    ]
    server = workloads.Server(ROOT, None, clients, work / "serve.log", source_args=corpus_args)
    try:
        server.start()
        records, wall_s = workloads.serve_pass(
            server, ops, seconds, workloads.MIN_ROUNDS["serve"], clients
        )
    finally:
        server.stop()
    tally, _, _ = workloads.check_serve(records, workloads.Expected(oracle))
    return {
        "shards": shards,
        "seed": seed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "throughput_qps": (tally.attempted - tally.failed) / wall_s,
        "latency_p50_ms": statistics.median(tally.latencies) * 1000.0,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--shards", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.run import WORK_DIR, remove_work

    work = ROOT / WORK_DIR / "shards"
    try:
        for shards in args.shards:
            print(json.dumps(measure_shards(args.seed, args.seconds, shards, work)), flush=True)
    finally:
        remove_work(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
