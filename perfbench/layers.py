"""Per-layer attribution of a traced question.

The program's flight recorder (``repro.trace``) yields one span tree
per question.  Each span name maps to a layer, either by *self* time
(its duration minus the union of its children's intervals) or, for a
span whose whole subtree belongs to one layer, by *whole* duration:
wrapper fetches run on the fetcher's thread pool, so sibling
``fetch:<source>`` spans overlap and only their enclosing ``fetch``
span measures the wall time they cost.

Spans that map to no layer (``query``, ``execute``,
``schedule:place``) give their self time to ``trace.unattributed_ms``,
as does any program time no span covers, such as building the answer
handle after ``navigate`` closes.
"""

from collections import defaultdict

#: Span name -> (layer metric, "self" | "whole").
SPAN_LAYERS = {
    "decompose": ("mediator.decompose_ms", "self"),
    "optimize": ("mediator.optimize_ms", "self"),
    "fetch": ("wrappers.fetch_ms", "whole"),
    "anchor": ("wrappers.fetch_ms", "whole"),
    "reconcile": ("mediator.reconcile_ms", "self"),
    "navigate": ("oem.answer_ms", "self"),
    "enrichment": ("mediator.enrichment_ms", "self"),
}

#: Layers a span tree can yield, in report order.
SPAN_LAYER_NAMES = tuple(dict.fromkeys(layer for layer, _ in SPAN_LAYERS.values()))


def layer_of(name):
    """``(layer metric, mode)`` of a span name, or ``(None, None)``."""
    if name in SPAN_LAYERS:
        return SPAN_LAYERS[name]
    if name.startswith("fetch:"):
        return SPAN_LAYERS["fetch"]
    return None, None


def covered(start, end, intervals):
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def attribute(span, totals=None):
    """Seconds per layer of one closed span tree, added into ``totals``."""
    totals = defaultdict(float) if totals is None else totals
    layer, mode = layer_of(span.name)
    if mode == "whole":
        totals[layer] += span.duration
        return totals
    children = span.children
    if layer is not None:
        inner = covered(
            span.start, span.end, [(child.start, child.end) for child in children]
        )
        totals[layer] += span.duration - inner
    for child in children:
        attribute(child, totals)
    return totals


def unattributed(span):
    """Self time of the spans no layer claims, over one closed tree."""
    layer, mode = layer_of(span.name)
    if mode == "whole":
        return 0.0
    children = span.children
    total = 0.0
    if layer is None:
        total += span.duration - covered(
            span.start, span.end, [(child.start, child.end) for child in children]
        )
    for child in children:
        total += unattributed(child)
    return total
