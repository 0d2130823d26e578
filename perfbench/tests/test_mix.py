"""Each template's share of a mix follows its count of eligible questions."""

import pytest

from perfbench import gen, mix
from perfbench.oracle import Oracle
from repro.core.annoda import Annoda
from repro.sources.corpus import CorpusParameters

TINY = {"loci": 150, "go_terms": 60, "omim_entries": 40}


@pytest.mark.parametrize("sizes,total,expected", [
    ([240, 68, 4], 100, [77, 22, 1]),
    ([1, 1, 3, 40], 35, [1, 1, 2, 31]),
    ([10, 0, 10], 5, [3, 0, 2]),
    ([5, 5], 2, [1, 1]),
])
def test_apportion_is_proportional_with_one_each(sizes, total, expected):
    counts = mix.apportion(sizes, total)
    assert counts == expected
    assert sum(counts) == total


@pytest.fixture(scope="module")
def oracle():
    annoda = Annoda.with_default_sources(seed=5, parameters=CorpusParameters(**TINY))
    return Oracle(gen.corpus_payload(annoda.corpus))


def test_serve_round_is_seeded_and_covers_every_template(oracle):
    first = mix.serve_round(oracle, 1)
    assert first == mix.serve_round(oracle, 1)
    assert len(first) == mix.SERVE_ROUND
    assert {template for template, _ in first} == {
        mix.SELECTIVE_TEMPLATE, "genes_by_annotation_keyword", "disease_genes",
    }


def test_churn_hot_set_fits_the_cache_and_reads_an_index(oracle):
    hot = mix.churn_hot_set(oracle, 1)
    assert len(hot) == mix.CHURN_HOT <= 32
    assert mix.index_question(oracle) in hot
    assert "organism" in mix.index_question(oracle)[1]
    reads = mix.churn_reads(hot, 1)
    assert all(spec in reads for spec in hot)
    assert abs(len(hot) / len(reads) - mix.CHURN_MISS_SHARE) < 0.01
