"""The three workloads, each run as a closed loop on public entry points.

``serve``
    ``nproc`` HTTP clients ``POST /query`` to ``python -m repro
    --snapshot-dir DIR serve`` running as a subprocess with ``nproc``
    workers.
``browse``
    One client drives the Figure-5 flow directly: ``Annoda.ask``, the
    integrated view, a few web-link follows, GO enrichment and one
    section-4.1 Lorel query per question.
``churn``
    One client asks a hot set of questions directly, with the stage
    artifact cache on, while LocusLink and OMIM records are written.

Every answer is checked against :class:`perfbench.oracle.Oracle`.  A
wrong answer or an exception fails the operation.  Checks run between
operations with the run clock stopped.

A pass repeats whole rounds (see :mod:`perfbench.mix`) until it has run
its seconds and at least its minimum rounds.  A trace run then replays
the same operations on two fresh federations, one with the program's
flight recorder on, for the per-layer metrics.
"""

import dataclasses
import gc
import http.client
import json
import os
import select
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

from perfbench import layers, measure, mix

#: Segments a run is measured in, each in a fresh program process (a
#: service lifetime on serve, a child process on browse and churn),
#: pooled into one result; see :mod:`perfbench.segment`.
SEGMENTS = 3

#: Rounds every segment completes, whatever ``--seconds`` says.  The
#: tail percentile is chosen for ``SEGMENTS`` times this many rounds,
#: so every run of a workload reports the same one: p95 on serve
#: (300 questions), p90 on browse (105 questions) and p95 on churn
#: (348 reads).  Fewer rounds would leave too few samples for these
#: tails; more would push them out to p98 and p99, which rest on the
#: dozen slowest operations and swung by a quarter from run to run.
#: On churn about 1% of reads stall 100-200 ms in full cyclic-GC
#: collections, so a p99 there sits on the edge of those stalls.
MIN_ROUNDS = {"serve": 1, "browse": 1, "churn": 2}

#: Set-ups timed per segment; ``setup_s`` is the median over the run.
SETUP_REPEATS = {"serve": 1, "browse": 3, "churn": 3}

#: In-process set-ups a trace run times layer by layer.
LAYER_SETUP_REPEATS = 5

#: Web links followed per browse question: the first links of the
#: first genes of the answer.
FOLLOW_GENES = 3
FOLLOW_LINKS = 2

#: The section-4.1 Lorel query, asked about each default source in turn.
LOREL_QUERY = 'select X from ANNODA-GML.Source X where X.Name = "{source}"'
LOREL_SOURCES = ("LocusLink", "GO", "OMIM")

#: A traced question's layer times must add up to its wall time within
#: this share of it (plus ``SUM_TOLERANCE_S``).
SUM_TOLERANCE = 0.01
SUM_TOLERANCE_S = 2e-5


class RunFailure(Exception):
    """The benchmark itself could not run (not an operation failure)."""


def question(template, params):
    from repro.questions.catalog import QuestionCatalog

    return getattr(QuestionCatalog, template)(**params)


def _key(spec):
    template, params = spec
    return template, tuple(sorted(params.items()))


class Tally:
    """Operation outcomes of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors = []
        self.latencies = []

    def ok(self, latency):
        self.attempted += 1
        self.latencies.append(latency)

    def fail(self, reason, wrong=False):
        self.attempted += 1
        self.failed += 1
        self.wrong += int(wrong)
        if len(self.errors) < 5:
            self.errors.append(reason)


class Expected:
    """Oracle answers, cached until the next write."""

    def __init__(self, oracle):
        self.oracle = oracle
        self._cache = {}

    def __call__(self, spec):
        key = _key(spec)
        if key not in self._cache:
            self._cache[key] = self.oracle.expected(*spec)
        return self._cache[key]

    def apply(self, write):
        self.oracle.apply(write)
        self._cache.clear()


def _gene_problem(spec, gene_ids, expected):
    """Why an answer's gene ids differ from the oracle's, or ``None``."""
    got = set(gene_ids)
    if got == expected and len(gene_ids) == len(expected):
        return None
    return (
        f"{spec}: {len(gene_ids)} genes, expected {len(expected)} "
        f"(missing {sorted(expected - got)[:5]}, extra {sorted(got - expected)[:5]})"
    )


# -- set-up ------------------------------------------------------------------


def load(snapshot, config=None):
    from repro.core.annoda import Annoda

    return Annoda.from_directory(snapshot, config=config)


def churn_config():
    from repro.core.annoda import AnnodaConfig

    return AnnodaConfig(stage_artifacts=True)


def direct_setup_times(snapshot, config, repeats):
    """Seconds of each of ``repeats`` calls of ``Annoda.from_directory``."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        annoda = load(snapshot, config)
        times.append(time.perf_counter() - started)
        del annoda
        gc.collect()
    return times


def setup_layers(snapshot, config, repeats=LAYER_SETUP_REPEATS):
    """Median seconds of the two set-up layers: loading the stores from
    the snapshot, and registering their wrappers (MDSM included)."""
    from repro.core.annoda import Annoda
    from repro.sources.persistence import load_stores, wrappers_for

    load_times, register_times = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        stores = load_stores(snapshot, adopt_indexes=True)
        loaded = time.perf_counter()
        annoda = Annoda(config=config)
        for wrapper in wrappers_for(stores):
            annoda.add_source(wrapper)
        load_times.append(loaded - started)
        register_times.append(time.perf_counter() - loaded)
        del annoda, stores
        gc.collect()
    return statistics.median(load_times), statistics.median(register_times)


# -- the service -------------------------------------------------------------


class Server:
    """``python -m repro --snapshot-dir DIR serve`` as a subprocess."""

    START_TIMEOUT = 60.0

    def __init__(self, root, snapshot, workers, log_path, source_args=None):
        self.root = root
        #: Where the service gets its sources: the snapshot by default.
        self.source_args = source_args or ["--snapshot-dir", str(snapshot)]
        self.workers = workers
        self.log_path = log_path
        self.process = None
        self.port = None

    def start(self):
        """Spawn the service; returns seconds until ``/healthz`` answers."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        command = [
            sys.executable, "-u", "-m", "repro", *self.source_args,
            "serve", "--port", "0",
            "--service-workers", str(self.workers),
        ]
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                command, cwd=str(self.root), env=env,
                stdout=subprocess.PIPE, stderr=log,
            )
        self.port = self._read_port(started)
        while True:
            try:
                status, _ = self.get("/healthz")
            except OSError:
                status = None
            if status == 200:
                return time.perf_counter() - started
            if time.perf_counter() - started > self.START_TIMEOUT:
                raise RunFailure("service never answered /healthz")
            time.sleep(0.005)

    def _read_port(self, started):
        stream = self.process.stdout
        while True:
            remaining = self.START_TIMEOUT - (time.perf_counter() - started)
            ready, _, _ = select.select([stream], [], [], max(0.0, remaining))
            if not ready:
                raise RunFailure("service did not report its address")
            line = stream.readline().decode("utf-8", "replace")
            if not line:
                raise RunFailure(
                    f"service exited with {self.process.wait()} before listening"
                )
            if "listening on http://" in line:
                return int(line.rsplit(":", 1)[1].strip().rstrip("/"))

    def _connection(self):
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def get(self, path):
        connection = self._connection()
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def query(self, spec):
        template, params = spec
        body = json.dumps({"question": template, "params": params})
        connection = self._connection()
        try:
            connection.request(
                "POST", "/query", body, {"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def peak_rss_mb(self):
        return measure.process_peak_rss_mb(self.process.pid)

    def stop(self):
        if self.process is None:
            return
        process, self.process = self.process, None
        if process.poll() is None:
            # SIGTERM, not SIGINT: a shell that starts jobs in the
            # background makes them (and their children) ignore SIGINT.
            process.terminate()
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=30)
        process.stdout.close()


def serve_pass(server, ops, seconds, min_rounds, clients):
    """``clients`` closed-loop HTTP clients over whole rounds of ``ops``.

    Returns ``(records, wall_s)``; ``records[i]`` is ``(spec, rtt_s,
    status, body)`` or ``(spec, None, None, error)``.
    """
    lock = threading.Lock()
    state = {"next": 0}
    records = {}
    started = time.perf_counter()

    def take():
        with lock:
            index = state["next"]
            if index % len(ops) == 0 and index // len(ops) >= min_rounds and (
                time.perf_counter() - started >= seconds
            ):
                return None
            state["next"] = index + 1
            return index

    def client():
        while True:
            index = take()
            if index is None:
                return
            spec = ops[index % len(ops)]
            begun = time.perf_counter()
            try:
                status, body = server.query(spec)
            except (OSError, ValueError, http.client.HTTPException) as exc:
                records[index] = (spec, None, None, repr(exc))
                continue
            records[index] = (spec, time.perf_counter() - begun, status, body)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [records[index] for index in sorted(records)], time.perf_counter() - started


def check_serve(records, expected):
    tally = Tally()
    elapsed, overhead = [], []
    for spec, rtt, status, body in records:
        if rtt is None:
            tally.fail(f"{spec}: {body}")
            continue
        if status != 200 or body.get("outcome") != "ok":
            tally.fail(f"{spec}: HTTP {status} {body.get('outcome')} {body.get('error')}")
            continue
        problem = _gene_problem(spec, body["result"]["gene_ids"], expected(spec))
        if problem:
            tally.fail(problem, wrong=True)
            continue
        tally.ok(rtt)
        elapsed.append(body["elapsed"])
        overhead.append(rtt - body["elapsed"])
    return tally, elapsed, overhead


# -- direct passes -------------------------------------------------------------


class Direct:
    """One closed-loop client calling the program in-process."""

    def __init__(self, annoda, oracle, recorder_factory=None, use_cache=True):
        self.annoda = annoda
        self.use_cache = use_cache
        self.expected = Expected(oracle)
        self.clock = measure.RunClock()
        self.tally = Tally()
        self.recorder_factory = recorder_factory
        self.questions = {}
        #: Layer name -> seconds, over traced operations.
        self.layer_s = defaultdict(float)
        self.traced_wall_s = 0.0
        self.traced_ops = 0
        self.traced_latencies = []
        self.unattributed_s = 0.0
        self.sum_errors = []
        self.rows = 0
        self.genes = 0
        self.selective_rows = 0
        self.selective_genes = 0
        #: Per operation, whether the program executed its question
        #: rather than replaying a cached answer.
        self.executed = []
        #: Latencies of the selective questions the program executed.
        self.selective_latencies = []
        self.cache_hits = 0
        self.reads = 0

    def _question(self, spec):
        key = _key(spec)
        if key not in self.questions:
            self.questions[key] = question(*spec)
        return self.questions[key]

    def ask(self, spec):
        """Ask one question (traced when this pass traces); returns
        ``(result, seconds)``."""
        asked = self._question(spec)
        if self.recorder_factory is None:
            return self.clock.time(self.annoda.ask, asked, use_cache=self.use_cache)
        return self.clock.time(
            self.annoda.ask, asked, recorder=self.recorder_factory()
        )

    def read(self, spec):
        """Ask one question and check its answer against the oracle."""
        try:
            result, ask_s = self.ask(spec)
        except Exception as exc:  # an operation failure, reported
            self.tally.fail(f"{spec}: {exc!r}")
            return
        problem = _gene_problem(spec, result.gene_ids(), self.expected(spec))
        if problem:
            self.tally.fail(problem, wrong=True)
            return
        self.tally.ok(ask_s)
        self.account(spec, result, ask_s)

    def account(self, spec, result, ask_s, extra_layers=None):
        """Record one operation's layers: its trace (when traced) plus
        the benchmark's own timers around other public calls."""
        self.reads += 1
        self.cache_hits += int(bool(result.from_result_cache))
        executed = not (result.from_result_cache or answer_artifact_hit(result.stats))
        self.executed.append(executed)
        if executed and spec[0] == mix.SELECTIVE_TEMPLATE:
            self.selective_latencies.append(ask_s)
        if self.recorder_factory is None:
            return
        span_layers = layers.attribute(result.trace)
        unattributed = ask_s - result.trace.duration + layers.unattributed(result.trace)
        wall = ask_s
        for name, seconds in span_layers.items():
            self.layer_s[name] += seconds
        for name, seconds in (extra_layers or {}).items():
            self.layer_s[name] += seconds
            wall += seconds
        total = sum(span_layers.values()) + sum((extra_layers or {}).values())
        if abs(total + unattributed - wall) > SUM_TOLERANCE * wall + SUM_TOLERANCE_S:
            self.sum_errors.append((wall, total, unattributed))
        self.unattributed_s += unattributed
        self.traced_wall_s += wall
        self.traced_ops += 1
        self.traced_latencies.append(wall)
        rows = result.stats.total_rows_fetched()
        self.rows += rows
        self.genes += len(result.genes)
        if spec[0] == mix.SELECTIVE_TEMPLATE:
            self.selective_rows += rows
            self.selective_genes += len(result.genes)


def answer_artifact_hit(stats):
    """Whether the whole-answer artifact answered an ask.  Its probe is
    the first an execution makes, so a hit and no miss means nothing
    else ran.  Traced asks never read it."""
    return stats.artifact_hits > 0 and stats.artifact_misses == 0


def rounds(clock, seconds, min_rounds, max_rounds=None):
    """Yield round indexes until the run clock passes ``seconds`` (and at
    least ``min_rounds``, at most ``max_rounds``, have run)."""
    index = 0
    while index < min_rounds or clock.elapsed < seconds:
        if max_rounds is not None and index >= max_rounds:
            return
        yield index
        index += 1


def ask_pass(direct, ops, seconds, min_rounds, max_rounds=None):
    """Ask whole rounds of ``ops`` in order (the serve mix, in-process)."""
    for _ in rounds(direct.clock, seconds, min_rounds, max_rounds):
        for spec in ops:
            direct.read(spec)


# -- browse ----------------------------------------------------------------------


def _follow(annoda, result):
    """Follow the first links of the first genes of an answer."""
    navigator = annoda.navigator
    graph = result.graph
    followed = []
    for gene in graph.children(result.root, "Gene")[:FOLLOW_GENES]:
        for link in navigator.links_of(graph, gene)[:FOLLOW_LINKS]:
            followed.append((link, navigator.follow(link)))
    return followed


KEY_FIELDS = {"LocusLink": "LocusID", "GO": "GoID", "OMIM": "MimNumber"}


def _view_errors(spec, expected, result, view, followed, enrichment, lorel,
                 source, oracle):
    """Property checks of one browse question; a list of problems."""
    problems = []
    lines = view.splitlines()
    shown = [int(line.split()[0]) for line in lines[3:] if line.strip()]
    if sorted(shown) != sorted(expected) or f"- {len(expected)} genes" not in lines[0]:
        problems.append(f"{spec}: view lists {len(shown)} genes, expected {len(expected)}")
    if not followed and expected:
        problems.append(f"{spec}: no web link to follow")
    for link, target in followed:
        fields = dict(target.field_items())
        key = fields.get(KEY_FIELDS.get(link.target_source))
        if (target.source_name, target.target_id, key) != (
            link.target_source, link.target_id, link.target_id
        ):
            problems.append(f"{spec}: link {link.url} opened {target!r} ({key!r})")
    study = set(result.gene_ids())
    for term in enrichment[:3]:
        want = oracle.study_count(study, term.go_id)
        if term.study_size != len(expected) or term.study_count != want:
            problems.append(
                f"{spec}: enrichment {term.go_id} {term.study_count}/{term.study_size}, "
                f"expected {want}/{len(expected)}"
            )
    sources = lorel.objects("Source")
    names = [lorel.graph.child_value(obj, "Name") for obj in sources]
    counts = [
        lorel.graph.child_value(content, "EntryCount")
        for obj in sources
        for content in lorel.graph.children(obj, "Content")
    ]
    if names != [source] or counts != [oracle.source_count(source)]:
        problems.append(
            f"lorel {source}: got {names} {counts}, expected "
            f"[{source}] [{oracle.source_count(source)}]"
        )
    return problems


def browse_pass(direct, ops, seconds, min_rounds, max_rounds=None):
    annoda = direct.annoda
    analyzer = annoda.enrichment_analyzer()
    clock = direct.clock
    count = 0
    for _ in rounds(clock, seconds, min_rounds, max_rounds):
        for spec in ops:
            source = LOREL_SOURCES[count % len(LOREL_SOURCES)]
            count += 1
            try:
                result, ask_s = direct.ask(spec)
                view, render_s = clock.time(annoda.render_integrated_view, result)
                followed, follow_s = clock.time(_follow, annoda, result)
                enrichment, enrich_s = clock.time(analyzer.enrich_result, result)
                lorel, lorel_s = clock.time(
                    annoda.lorel, LOREL_QUERY.format(source=source)
                )
            except Exception as exc:  # an operation failure, reported
                direct.tally.fail(f"{spec}: {exc!r}")
                continue
            expected = direct.expected(spec)
            problem = _gene_problem(spec, result.gene_ids(), expected) or "; ".join(
                _view_errors(spec, expected, result, view, followed, enrichment,
                             lorel, source, direct.expected.oracle)
            )
            if problem:
                direct.tally.fail(problem, wrong=True)
                continue
            direct.tally.ok(ask_s + render_s + follow_s + enrich_s + lorel_s)
            direct.account(spec, result, ask_s, {
                "navigation.render_ms": render_s,
                "navigation.follow_ms": follow_s,
                "analysis.go_enrichment_ms": enrich_s,
                "lorel.query_ms": lorel_s,
            })


# -- churn ------------------------------------------------------------------------


def apply_write(annoda, write):
    """Apply one source write to the federation's live stores."""
    if write["kind"] == "locus_edit":
        store = annoda.mediator.wrapper("LocusLink").source
        old = store.get(write["locus"])
        new = dataclasses.replace(
            old,
            aliases=list(old.aliases),
            go_ids=list(write["go_ids"]),
            omim_ids=list(write["omim_ids"]),
            pubmed_ids=list(old.pubmed_ids),
        )
        store.remove(write["locus"])
        store.add(new)
    else:
        from repro.sources.omim.record import OmimRecord

        annoda.mediator.wrapper("OMIM").source.add(
            OmimRecord(
                mim_number=write["mim"],
                title=write["title"],
                gene_symbols=list(write["symbols"]),
            )
        )


def churn_pass(direct, hot_set, seed, seconds, min_rounds, writes=None):
    """Churn rounds: one write, then the hot-set reads.

    ``writes`` replays a recorded write sequence (and bounds the pass to
    its length); otherwise writes are drawn from the oracle and recorded.
    Returns the writes applied.
    """
    rng = mix.rng_for(seed, "churn-writes")
    reads = mix.churn_reads(hot_set, seed)
    applied = []
    max_rounds = None if writes is None else len(writes)
    clock = direct.clock
    for index in rounds(clock, seconds, min_rounds, max_rounds):
        write = (
            writes[index] if writes is not None
            else mix.next_write(direct.expected.oracle, rng, index)
        )
        try:
            clock.time(apply_write, direct.annoda, write)
        except Exception as exc:  # an operation failure, reported
            direct.tally.fail(f"write {write}: {exc!r}")
        else:
            direct.tally.attempted += 1
        direct.expected.apply(write)
        applied.append(write)
        for spec in reads:
            direct.read(spec)
    return applied


def source_counters(annoda):
    """Summed fetch-path counters of every registered source."""
    totals = defaultdict(int)
    for name in annoda.sources():
        for key, value in annoda.mediator.wrapper(name).source.fetch_stats().items():
            totals[key] += value
    return totals
