"""The oracle agrees with the program on a tiny corpus, and rejects
answers that are not right."""

import pytest

from perfbench import gen, mix, workloads
from perfbench.oracle import Oracle, OracleError
from repro.core.annoda import Annoda
from repro.sources.corpus import CorpusParameters

TINY = {"loci": 150, "go_terms": 60, "omim_entries": 40}


@pytest.fixture(scope="module")
def federation():
    annoda = Annoda.with_default_sources(seed=5, parameters=CorpusParameters(**TINY))
    return annoda, gen.corpus_payload(annoda.corpus)


def _questions(oracle):
    questions = [("figure5b", {}), ("unannotated_genes", {})]
    questions += mix.disease_questions(oracle)
    questions += [
        ("genes_under_term", {"go_id": go_id}) for go_id in sorted(oracle.terms)[:20]
    ]
    questions += [question for question, _ in mix.keyword_questions(oracle)][:20]
    return questions


def _answer(annoda, spec):
    return sorted(annoda.ask(workloads.question(*spec), use_cache=False).gene_ids())


def test_oracle_agrees_with_every_template(federation):
    annoda, payload = federation
    oracle = Oracle(payload)
    questions = _questions(oracle)
    assert {template for template, _ in questions} == {
        "figure5b", "unannotated_genes", "disease_genes",
        "genes_under_term", "genes_by_annotation_keyword",
    }
    for spec in questions:
        assert _answer(annoda, spec) == sorted(oracle.expected(*spec)), spec


def test_oracle_follows_writes(federation):
    _, payload = federation
    annoda = Annoda.with_default_sources(seed=5, parameters=CorpusParameters(**TINY))
    oracle = Oracle(payload)
    rng = mix.rng_for(5, "test-writes")
    for index in range(12):
        write = mix.next_write(oracle, rng, index)
        workloads.apply_write(annoda, write)
        oracle.apply(write)
    for spec in _questions(oracle):
        assert _answer(annoda, spec) == sorted(oracle.expected(*spec)), spec


def test_altered_answers_are_rejected(federation):
    annoda, payload = federation
    oracle = Oracle(payload)
    spec = ("figure5b", {})
    expected = oracle.expected(*spec)
    right = _answer(annoda, spec)
    assert workloads._gene_problem(spec, right, expected) is None
    assert workloads._gene_problem(spec, right[1:], expected)
    assert workloads._gene_problem(spec, right + [right[0]], expected)
    outsider = max(oracle.go_by_locus) + 1
    assert workloads._gene_problem(spec, right[1:] + [outsider], expected)


def test_altered_views_are_rejected(federation):
    annoda, payload = federation
    oracle = Oracle(payload)
    spec = ("figure5b", {})
    expected = oracle.expected(*spec)
    result = annoda.ask(workloads.question(*spec))
    view = annoda.render_integrated_view(result)
    followed = workloads._follow(annoda, result)
    enrichment = annoda.enrichment_analyzer().enrich_result(result)
    lorel = annoda.lorel(workloads.LOREL_QUERY.format(source="GO"))

    def problems(**changed):
        parts = dict(view=view, followed=followed, lorel=lorel, source="GO")
        parts.update(changed)
        return workloads._view_errors(
            spec, expected, result, parts["view"], parts["followed"],
            enrichment, parts["lorel"], parts["source"], oracle,
        )

    assert problems() == []
    lines = view.splitlines()
    assert problems(view="\n".join(lines[:-1]))
    link, target = followed[0]
    other = followed[-1][1] if followed[-1][0].target_id != link.target_id else None
    if other is not None:
        assert problems(followed=[(link, other)])
    assert problems(source="OMIM")


def test_oracle_refuses_inconsistent_links(federation):
    _, payload = federation
    broken = dict(payload)
    locus = next(key for key, mims in payload["omim_by_locus"].items() if mims)
    broken["omim_by_locus"] = dict(payload["omim_by_locus"], **{locus: []})
    with pytest.raises(OracleError):
        Oracle(broken)
