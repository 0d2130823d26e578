"""Write the seeded corpus a benchmark run works on.

Runs in its own process (``python3 -m perfbench.gen``), so corpus
generation never counts towards the peak memory of the process that
runs the program.  It writes two things into ``--out``:

- ``snapshot/``: the federation persisted with ``Annoda.save`` (flat
  files plus index snapshots), which every workload loads from;
- ``oracle.json``: the corpus's ground truth and the raw records the
  oracle needs (GO terms with their is-a parents, per-locus organism,
  symbol and LocusLink-side MIM links, per-entry OMIM gene symbols).
"""

import argparse
import json
import pathlib
import sys

#: One corpus shape for all three workloads.  No conflicts are
#: injected: every answer has exactly one right value.
CORPUS = {"loci": 2000, "go_terms": 400, "omim_entries": 600}


def corpus_payload(corpus):
    """The JSON-ready oracle input of a generated corpus."""
    truth = corpus.ground_truth
    loci = [
        {
            "id": record.locus_id,
            "symbol": record.symbol,
            "organism": record.organism,
            "omim_ids": list(record.omim_ids),
        }
        for record in corpus.locuslink.all_records()
    ]
    terms = [
        {
            "id": term.go_id,
            "name": term.name,
            "namespace": term.namespace,
            "is_a": list(term.is_a),
            "obsolete": term.obsolete,
        }
        for term in corpus.go.all_terms()
    ]
    entries = [
        {"mim": entry.mim_number, "symbols": list(entry.gene_symbols)}
        for entry in corpus.omim.all_records()
    ]
    return {
        "seed": corpus.seed,
        "go_by_locus": {
            str(locus): sorted(terms_)
            for locus, terms_ in truth.go_by_locus.items()
        },
        "omim_by_locus": {
            str(locus): sorted(mims)
            for locus, mims in truth.omim_by_locus.items()
        },
        "loci": loci,
        "go_terms": terms,
        "omim_entries": entries,
    }


def generate(seed, out, corpus_shape=None):
    """Generate the corpus for ``seed`` and write it under ``out``."""
    from repro.core.annoda import Annoda
    from repro.sources.corpus import CorpusParameters

    parameters = CorpusParameters(**(corpus_shape or CORPUS))
    annoda = Annoda.with_default_sources(seed=seed, parameters=parameters)
    out = pathlib.Path(out)
    out.mkdir(parents=True, exist_ok=True)
    annoda.save(str(out / "snapshot"))
    (out / "oracle.json").write_text(
        json.dumps(corpus_payload(annoda.corpus)), encoding="utf-8"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument(
        "--shape", default=None,
        help="JSON object overriding the corpus shape (tests use a tiny one)",
    )
    args = parser.parse_args(argv)
    shape = json.loads(args.shape) if args.shape else None
    generate(args.seed, args.out, shape)
    return 0


if __name__ == "__main__":
    sys.exit(main())
