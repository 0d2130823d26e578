"""Seeded question mixes and source writes for the three workloads.

A question is ``(template, params)``: a ``QuestionCatalog`` method name
and its keyword arguments, the same form ``POST /query`` takes.  Every
choice is drawn from ``random.Random`` seeded with the workload seed,
so one seed always gives the same operations.

A *round* is a fixed list of operations.  A run repeats whole rounds,
so every run attempts the same operations in the same proportions.
"""

import random

#: ``genes_under_term`` questions count as selective when the answer
#: holds this share of the loci (10 to 100 genes at 2000 loci).
SELECTIVE_SHARE = (0.005, 0.05)

#: Keyword questions of the serve and churn mixes answer this share of
#: the loci, so their cost varies little from seed to seed.
KEYWORD_SHARE = (0.025, 0.10)

#: Browse keyword questions are broad: their answers hold this share
#: of the loci (100 to 200 genes at 2000 loci).
BROAD_SHARE = (0.05, 0.10)

#: Keywords shorter than this are not asked about.
MIN_KEYWORD = 4

#: Questions per round of each mix.  The paper gives no traffic mix, so
#: each template's share of a round is the share of its *eligible*
#: questions (those inside the bands above) among all eligible ones, at
#: least one each: every eligible question is about equally likely to
#: be asked.  Only these round sizes and the bands are chosen by hand.
SERVE_ROUND = 100
#: More distinct questions than the mediator's 32-entry result cache.
BROWSE_ROUND = 35
#: Half the 32-entry result cache, so the hot set always fits.
CHURN_HOT = 16

#: churn reads per write put this share of reads among the misses (one
#: per hot question after each write): midway between the reported
#: p50 and p95, so neither lands near the hit/miss boundary.
CHURN_MISS_SHARE = 1.0 - (50.0 + 95.0) / 200.0


#: The template of the selective questions, whose own layer metrics
#: judge a semijoin change.
SELECTIVE_TEMPLATE = "genes_under_term"


def rng_for(seed, purpose):
    """A private random stream per (seed, purpose)."""
    return random.Random(f"perfbench:{seed}:{purpose}")


def organisms(oracle):
    return sorted(set(oracle.organism.values()))


def aspects(oracle):
    return sorted({term["namespace"] for term in oracle.terms.values()})


def _genes(oracle, share):
    """``share`` of the corpus's loci, as a gene count."""
    return share * len(oracle.go_by_locus)


def selective_terms(oracle):
    """``(question, answer size)`` of every selective term question."""
    low, high = (_genes(oracle, share) for share in SELECTIVE_SHARE)
    found = []
    for go_id in sorted(oracle.terms):
        question = (SELECTIVE_TEMPLATE, {"go_id": go_id})
        size = len(oracle.expected(*question))
        if low <= size <= high:
            found.append((question, size))
    return found


def keyword_questions(oracle, low_share=0.0, high_share=1.0):
    """``(question, answer size)`` of every (keyword, aspect) question over
    words of live GO term names whose answer holds between ``low_share``
    and ``high_share`` of the loci (and at least one gene)."""
    low = max(1.0, _genes(oracle, low_share))
    high = _genes(oracle, high_share)
    words = sorted(
        {
            word
            for term in oracle.terms.values()
            if not term["obsolete"]
            for word in term["name"].lower().split()
            if len(word) >= MIN_KEYWORD
        }
    )
    found = []
    for word in words:
        for aspect in [None] + aspects(oracle):
            params = {"keyword": word}
            if aspect is not None:
                params["aspect"] = aspect
            question = ("genes_by_annotation_keyword", params)
            size = len(oracle.expected(*question))
            if low <= size <= high:
                found.append((question, size))
    return found


def stratified(rng, sized, count):
    """``count`` questions from ``(question, size)`` pairs, one drawn from
    each of ``count`` equal strata by answer size, so every seed gets
    nearly the same spread of sizes.  With fewer candidates than
    ``count``, all of them, repeated to fill."""
    ordered = [question for question, _ in sorted(sized, key=lambda item: (item[1], str(item[0])))]
    if not ordered:
        return []
    if len(ordered) < count:
        return [ordered[index % len(ordered)] for index in range(count)]
    return [
        ordered[rng.randrange(index * len(ordered) // count, (index + 1) * len(ordered) // count)]
        for index in range(count)
    ]


def apportion(sizes, total):
    """Split ``total`` picks among pools of ``sizes`` eligible questions
    in proportion to those sizes (largest remainder), at least one for
    every non-empty pool."""
    whole = sum(sizes)
    quotas = [total * size / whole for size in sizes]
    counts = [max(1, int(quota)) if size else 0 for size, quota in zip(sizes, quotas)]
    while sum(counts) < total:
        index = max(range(len(sizes)), key=lambda i: (quotas[i] - counts[i], -i))
        counts[index] += 1
    while sum(counts) > total:
        index = max(
            (i for i in range(len(sizes)) if counts[i] > 1),
            key=lambda i: (counts[i] - quotas[i], -i),
        )
        counts[index] -= 1
    return counts


def proportional(rng, pools, total):
    """``total`` questions from pools of ``(question, size)`` pairs, each
    pool given its :func:`apportion` share, drawn :func:`stratified`."""
    picked = []
    for pool, count in zip(pools, apportion([len(pool) for pool in pools], total)):
        picked += stratified(rng, pool, count)
    return picked


def _sized(oracle, questions):
    return [(question, len(oracle.expected(*question))) for question in questions]


def disease_questions(oracle):
    return [("disease_genes", {})] + [
        ("disease_genes", {"organism": organism}) for organism in organisms(oracle)
    ]


def serve_round(oracle, seed):
    """The serve mix: mostly distinct selective term, keyword x aspect
    and disease x organism questions."""
    rng = rng_for(seed, "serve")
    questions = proportional(rng, [
        selective_terms(oracle),
        keyword_questions(oracle, *KEYWORD_SHARE),
        _sized(oracle, disease_questions(oracle)),
    ], SERVE_ROUND)
    rng.shuffle(questions)
    return questions


def browse_round(oracle, seed):
    """The browse mix: the paper's Figure-5 question and other broad
    questions whose answers a user reads, renders and follows."""
    rng = rng_for(seed, "browse")
    broad = [
        question
        for question in disease_questions(oracle)
        if len(oracle.expected(*question)) >= _genes(oracle, BROAD_SHARE[0])
    ]
    questions = proportional(rng, [
        _sized(oracle, [("figure5b", {})]),
        _sized(oracle, [("unannotated_genes", {})]),
        _sized(oracle, broad),
        keyword_questions(oracle, *BROAD_SHARE),
    ], BROWSE_ROUND)
    rng.shuffle(questions)
    return questions


def index_question(oracle):
    """The per-organism disease question with the smallest answer.  Its
    ``Species = X`` condition reads LocusLink's ``Organism`` index, so
    every LocusLink write costs the next ask an index rebuild; the
    smallest answer keeps its miss about as costly as the others."""
    return min(
        _sized(oracle, disease_questions(oracle)[1:]),
        key=lambda item: (item[1], item[0][1]["organism"]),
    )[0]


def churn_hot_set(oracle, seed):
    """The churn hot set: selective term and keyword questions in
    proportion to their eligible counts, plus :func:`index_question`."""
    rng = rng_for(seed, "churn")
    questions = proportional(rng, [
        selective_terms(oracle),
        keyword_questions(oracle, *KEYWORD_SHARE),
    ], CHURN_HOT - 1)
    return questions + [index_question(oracle)]


def churn_reads(hot_set, seed):
    """The reads of one churn round: the hot set cycled in a seeded
    order, ``len(hot_set) / CHURN_MISS_SHARE`` reads in all."""
    order = list(hot_set)
    rng_for(seed, "churn-order").shuffle(order)
    count = round(len(order) / CHURN_MISS_SHARE)
    return [order[index % len(order)] for index in range(count)]


#: Write kinds, cycled one per round.
WRITE_KINDS = ("locus_go", "locus_mim", "omim_add")


def next_write(oracle, rng, round_index):
    """The source write opening churn round ``round_index``, drawn
    against the oracle's current state (so it is always valid)."""
    kind = WRITE_KINDS[round_index % len(WRITE_KINDS)]
    loci = sorted(oracle.go_by_locus)
    if kind == "omim_add":
        mim = max(oracle.omim_symbols) + rng.randint(1, 20)
        chosen = rng.sample(loci, rng.randint(1, 2))
        return {
            "kind": "omim_add",
            "mim": mim,
            "title": f"DISORDER {mim}",
            "symbols": [oracle.symbol[locus] for locus in chosen],
        }
    locus = rng.choice(loci)
    go_ids = set(oracle.go_by_locus[locus])
    omim_ids = set(oracle.ll_mims[locus])
    if kind == "locus_go":
        annotatable = sorted(
            go_id for go_id, term in oracle.terms.items()
            if term["is_a"] and not term["obsolete"] and go_id not in go_ids
        )
        if go_ids and rng.random() < 0.5:
            go_ids.discard(rng.choice(sorted(go_ids)))
        else:
            go_ids.add(rng.choice(annotatable))
    else:
        symbol = oracle.symbol[locus]
        # Only LocusLink-side links whose entry does not also list the
        # symbol can be dropped; otherwise the association survives.
        droppable = sorted(
            mim for mim in omim_ids
            if symbol not in oracle.omim_symbols.get(mim, ())
        )
        unlinked = sorted(set(oracle.omim_symbols) - oracle.omim_by_locus[locus])
        if droppable and rng.random() < 0.5:
            omim_ids.discard(rng.choice(droppable))
        else:
            omim_ids.add(rng.choice(unlinked))
    return {
        "kind": "locus_edit",
        "locus": locus,
        "go_ids": sorted(go_ids),
        "omim_ids": sorted(omim_ids),
    }
