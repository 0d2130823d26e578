"""The answer oracle: expected gene-id sets computed apart from the program.

It starts from the corpus's ground truth (``go_by_locus``,
``omim_by_locus``), walks its own is-a closure over the raw GO terms
and does its own keyword and organism matching.  It shares no code
with the mediator: a fault in decomposition, reconciliation, caching
or invalidation shows as a set that differs from the oracle's.

Source writes (the ``churn`` workload) are applied to the oracle's own
copy of the maps with :meth:`Oracle.apply`.
"""

from collections import defaultdict


class OracleError(Exception):
    """The oracle's model of the corpus does not hold together."""


class Oracle:
    """Expected answers for the catalog question templates."""

    def __init__(self, payload):
        self.terms = {term["id"]: term for term in payload["go_terms"]}
        self._children = defaultdict(list)
        for term in payload["go_terms"]:
            for parent in term["is_a"]:
                self._children[parent].append(term["id"])
        self.go_by_locus = {
            int(locus): set(terms)
            for locus, terms in payload["go_by_locus"].items()
        }
        self.omim_by_locus = {
            int(locus): set(mims)
            for locus, mims in payload["omim_by_locus"].items()
        }
        self.organism = {}
        self.symbol = {}
        #: MIM links recorded on the LocusLink side of each locus.
        self.ll_mims = {}
        for locus in payload["loci"]:
            self.organism[locus["id"]] = locus["organism"]
            self.symbol[locus["id"]] = locus["symbol"]
            self.ll_mims[locus["id"]] = set(locus["omim_ids"])
        #: Gene symbols each OMIM entry lists (the OMIM side of a link).
        self.omim_symbols = {
            entry["mim"]: set(entry["symbols"])
            for entry in payload["omim_entries"]
        }
        self._closure = {}
        self._check_links()

    # -- the model --------------------------------------------------------

    def _derived_mims(self, locus):
        """A locus's disease associations from the raw links: MIM numbers
        it records that exist, plus entries listing its symbol."""
        symbol = self.symbol[locus]
        recorded = {mim for mim in self.ll_mims[locus] if mim in self.omim_symbols}
        listed = {
            mim for mim, symbols in self.omim_symbols.items() if symbol in symbols
        }
        return recorded | listed

    def _check_links(self):
        """The ground truth must agree with the raw links, or the
        oracle's model of how sources link is wrong."""
        by_symbol = defaultdict(set)
        for mim, symbols in self.omim_symbols.items():
            for symbol in symbols:
                by_symbol[symbol].add(mim)
        for locus, truth in self.omim_by_locus.items():
            recorded = {m for m in self.ll_mims[locus] if m in self.omim_symbols}
            derived = recorded | by_symbol.get(self.symbol[locus], set())
            if derived != truth:
                raise OracleError(
                    f"locus {locus}: ground truth {sorted(truth)} but the raw "
                    f"links give {sorted(derived)}"
                )

    def under(self, go_id):
        """``go_id`` and every term below it (is-a closure)."""
        closure = self._closure.get(go_id)
        if closure is None:
            closure = {go_id}
            stack = [go_id]
            while stack:
                for child in self._children.get(stack.pop(), ()):
                    if child not in closure:
                        closure.add(child)
                        stack.append(child)
            self._closure[go_id] = closure
        return closure

    def above(self, go_id):
        """``go_id``'s ancestors (is-a closure upwards, itself excluded)."""
        seen = set()
        stack = list(self.terms[go_id]["is_a"])
        while stack:
            term = stack.pop()
            if term not in seen:
                seen.add(term)
                stack.extend(self.terms[term]["is_a"])
        return seen

    # -- expected answers -------------------------------------------------

    def expected(self, template, params):
        """The gene-id set a catalog question must answer."""
        with_go = {locus for locus, terms in self.go_by_locus.items() if terms}
        with_omim = {locus for locus, mims in self.omim_by_locus.items() if mims}
        if template == "figure5b":
            return frozenset(with_go - with_omim)
        if template == "unannotated_genes":
            return frozenset(set(self.go_by_locus) - with_go - with_omim)
        if template == "disease_genes":
            organism = params.get("organism")
            return frozenset(
                locus for locus in with_omim
                if organism is None or self.organism[locus] == organism
            )
        if template == "genes_under_term":
            closure = self.under(params["go_id"])
            return frozenset(
                locus for locus, terms in self.go_by_locus.items()
                if terms & closure
            )
        if template == "genes_by_annotation_keyword":
            keyword = params["keyword"].lower()
            aspect = params.get("aspect")
            matching = {
                go_id for go_id, term in self.terms.items()
                if keyword in term["name"].lower()
                and (aspect is None or term["namespace"] == aspect)
            }
            return frozenset(
                locus for locus, terms in self.go_by_locus.items()
                if terms & matching
            )
        raise OracleError(f"no oracle for question template {template!r}")

    def source_count(self, source):
        """Entry count of one source (what the section-4.1 Lorel query
        reads from the global model)."""
        if source == "LocusLink":
            return len(self.go_by_locus)
        if source == "GO":
            return len(self.terms)
        if source == "OMIM":
            return len(self.omim_symbols)
        raise OracleError(f"unknown source {source!r}")

    def study_count(self, genes, go_id):
        """Genes of ``genes`` annotated with ``go_id`` or a term below it
        (the count GO enrichment tests)."""
        closure = self.under(go_id)
        return sum(1 for gene in genes if self.go_by_locus[gene] & closure)

    # -- writes -----------------------------------------------------------

    def apply(self, write):
        """Apply one source write (see :mod:`perfbench.mix`)."""
        kind = write["kind"]
        if kind == "locus_edit":
            locus = write["locus"]
            self.go_by_locus[locus] = set(write["go_ids"])
            self.ll_mims[locus] = set(write["omim_ids"])
            self.omim_by_locus[locus] = self._derived_mims(locus)
        elif kind == "omim_add":
            mim = write["mim"]
            self.omim_symbols[mim] = set(write["symbols"])
            by_symbol = {symbol: locus for locus, symbol in self.symbol.items()}
            for symbol in write["symbols"]:
                self.omim_by_locus[by_symbol[symbol]].add(mim)
        else:
            raise OracleError(f"unknown write kind {kind!r}")
