"""``serve-mix`` and ``serve-durable``: governed joins through the daemon.

Set-up generates the data, inserts it into R*-trees, saves each tree,
loads it back, builds its arena and registers it with a
:class:`JoinService` hosted behind a :class:`ServeDaemon` on a unix
socket in this process.  Two client threads then run a closed loop over
a seeded stream: each round is the same multiset of operations in a
seeded order, and a run always finishes the round it started.  Every
answer is kept and checked after the timed window against the
brute-force oracle and a direct ``spatial_join`` of the same trees.

``serve-durable`` runs the same stream against a daemon with a state
directory (journal fsynced per record, checkpoints spilled every
``SPILL_NA`` node accesses) and adds operations that retry a completed
idempotency key.
"""

from __future__ import annotations

import asyncio
import json
import random
import shutil
import statistics
import threading
import time
from pathlib import Path

from repro import (LRUBuffer, NoBuffer, PathBuffer, RStarTree, SpatialJoin,
                   clustered_rectangles, load_tree, save_tree,
                   spatial_join, uniform_rectangles)
from repro.exec import ExecutionGovernor
from repro.serve import (CostAdmission, JoinService, JsonlLog, ServeClient,
                         ServeConfig, ServeDaemon)
from repro.serve import service as service_module

from . import oracle
from .common import Outcome, median, peak_rss_mb, percentile
from .spans import SpanRecorder

MAX_ENTRIES = 16
DENSITY = 0.5
NDIM = 2
#: name -> (generator, cardinality).  ``s*`` small, ``l*`` large,
#: ``c1`` clustered; (s1, l2) and (l1, s2) are the skewed-cardinality
#: pairs.
TREES = {"s1": (uniform_rectangles, 200), "s2": (uniform_rectangles, 200),
         "l1": (uniform_rectangles, 1000), "l2": (uniform_rectangles, 1000),
         "c1": (clustered_rectangles, 600)}
CLIENTS = 2
SETUPS = 3
SPILL_NA = 300          #: serve-durable spill interval, node accesses
MAX_SLICES = 64         #: a token chain longer than this has failed
SLICE_S = 2.5           #: rates are medians over slices this long

#: One round: (label, tree1, tree2, request options, count).  Large SJ
#: joins are the biggest share, so the latency median falls inside
#: their cluster: a short request's latency is mostly waiting for the
#: interpreter lock held by the other client's join, and swings far
#: more from run to run than the work itself.
MIX = (
    ("small", "s1", "s2", {}, 1),
    ("small-pairs", "s1", "s2", {"collect_pairs": True}, 1),
    ("large", "l1", "l2", {}, 8),
    ("large-lru", "l1", "l2", {"buffer": "lru:8"}, 1),
    ("large-none", "l1", "l2", {"buffer": "none"}, 1),
    ("large-pairs", "l1", "l2", {"collect_pairs": True}, 1),
    ("large-pbsm", "l1", "l2", {"strategy": "pbsm"}, 2),
    ("large-pbsm-pairs", "l1", "l2",
     {"strategy": "pbsm", "collect_pairs": True}, 1),
    ("skew-small-large", "s1", "l2", {}, 1),
    ("skew-large-small", "l1", "s2", {}, 1),
    ("clustered", "c1", "l1", {}, 1),
    ("clustered-pbsm", "c1", "l1", {"strategy": "pbsm"}, 1),
    ("chain", "l1", "l2", {"collect_pairs": True, "admission": "off"}, 1),
)
#: Labels answered by the SJ traversal under a path buffer.
PATH_SYNC = ("small", "small-pairs", "large", "large-pairs",
             "skew-small-large", "skew-large-small", "clustered")
#: serve-durable adds these: each runs the keyed request, then retries it.
KEYED = (
    ("keyed-large", "l1", "l2", {}, 1),
    ("keyed-skew", "s1", "l2", {"collect_pairs": True}, 1),
)


class _Op:
    """One operation of the stream and every reply it received."""

    __slots__ = ("label", "tree1", "tree2", "options", "key", "replies")

    def __init__(self, label, tree1, tree2, options, key=None):
        self.label, self.tree1, self.tree2 = label, tree1, tree2
        self.options, self.key = options, key
        self.replies: list[dict] = []    # per request: doc, latency, ...


def _round_ops(seed: int, rnd: int, durable: bool,
               tag: str) -> list[_Op]:
    ops = []
    for label, t1, t2, options, count in MIX + (KEYED if durable else ()):
        for i in range(count):
            key = (f"{tag}r{rnd}-{label}-{i}" if label.startswith("keyed")
                   else None)
            ops.append(_Op(label, t1, t2, options, key))
    random.Random(seed * 7919 + rnd).shuffle(ops)
    return ops


# -- hosting --------------------------------------------------------------

class _Hosted:
    """A daemon served by an event loop on a background thread."""

    def __init__(self, service: JoinService):
        self.daemon = ServeDaemon(service)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       name="perfbench-daemon")
        self.thread.start()
        try:
            self.addresses = asyncio.run_coroutine_threadsafe(
                self.daemon.start(), self.loop).result(timeout=60)
        except BaseException:
            self._halt()
            raise

    def stop(self) -> None:
        try:
            asyncio.run_coroutine_threadsafe(
                self.daemon.stop(), self.loop).result(timeout=120)
        finally:
            self._halt()

    def _halt(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=60)
        self.loop.close()


class _Setup:
    """Data, trees and a listening daemon, built from raw rectangles."""

    def __init__(self, seed: int, workdir: Path, durable: bool,
                 rec: SpanRecorder):
        workdir.mkdir(parents=True)
        self.workdir = workdir
        self.data, self.trees, self.paths = {}, {}, {}
        for i, (name, (gen, n)) in enumerate(TREES.items()):
            with rec.span("datasets.generate"):
                self.data[name] = gen(n, DENSITY, NDIM,
                                      seed=seed * 1009 + i)
            tree = RStarTree(NDIM, MAX_ENTRIES)
            for rect, oid in self.data[name]:
                with rec.span("rtree.insert"):
                    tree.insert(rect, oid)
            path = workdir / f"{name}.json"
            with rec.span("io.save_tree"):
                save_tree(tree, path)
            with rec.span("io.load_tree"):
                loaded = load_tree(path)
            with rec.span("geometry.arena_build"):
                loaded.arena()
            self.trees[name], self.paths[name] = loaded, path
        #: Non-root pages per tree: what PBSM reads, once each.
        self.nonroot = {name: sum(1 for _ in tree.nodes()) - 1
                        for name, tree in self.trees.items()}
        self.state_dir = workdir / "state" if durable else None
        config = ServeConfig(
            port=None, unix_path=str(workdir / "d.sock"),
            max_concurrency=CLIENTS,
            state_dir=(str(self.state_dir) if durable else None),
            spill_na_interval=SPILL_NA)
        service = JoinService(config)
        for name, tree in self.trees.items():
            service.register_tree(name, tree,
                                  source_path=str(self.paths[name]))
        self.hosted = _Hosted(service)
        self.client = ServeClient(self.hosted.addresses[0])
        try:
            self.client.healthz()
        except BaseException:
            self.hosted.stop()
            raise

    def pages(self, tree1: str, tree2: str) -> int:
        return self.nonroot[tree1] + self.nonroot[tree2]

    def close(self) -> None:
        self.hosted.stop()

    def discard(self) -> None:
        self.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- the closed loop ------------------------------------------------------

class _Window:
    """CLIENTS threads draining whole rounds until ``seconds`` pass, or
    exactly ``rounds`` rounds when that is given."""

    def __init__(self, setup: _Setup, seed: int, tag: str,
                 seconds: float | None, durable: bool, rec: SpanRecorder,
                 rounds: int | None = None):
        self.setup, self.rec, self.tag = setup, rec, tag
        self.ops: list[_Op] = []
        self.errors: list[tuple[_Op, str]] = []
        self._lock = threading.Lock()
        self._queue: list[_Op] = []
        self._seed, self._durable = seed, durable
        self.rounds = 0
        self._limit = rounds
        self.start = start = time.perf_counter()
        self._deadline = start + (seconds or 0.0)
        threads = [threading.Thread(target=self._client,
                                    name=f"perfbench-client-{c}")
                   for c in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.wall = time.perf_counter() - start

    def _take(self) -> _Op | None:
        with self._lock:
            if not self._queue:
                if self._limit is not None:
                    if self.rounds == self._limit:
                        return None
                elif self.rounds and time.perf_counter() >= self._deadline:
                    return None
                self._queue = _round_ops(self._seed, self.rounds,
                                         self._durable, self.tag)
                self.ops.extend(self._queue)
                self.rounds += 1
            return self._queue.pop()

    def _client(self) -> None:
        client = ServeClient(self.setup.client.url)
        while (op := self._take()) is not None:
            try:
                self._run_op(client, op)
            except Exception as exc:        # noqa: BLE001 — counted
                with self._lock:
                    self.errors.append((op, f"{type(exc).__name__}: {exc}"))

    def _send(self, client, op, options, retry=False) -> dict:
        with self.rec.span("client.request", ctx={}) as span:
            t0 = time.perf_counter()
            doc = client.join(op.tree1, op.tree2,
                              idempotency_key=op.key, **options)
            latency = time.perf_counter() - t0
        if span is not None:
            span.ctx["rid"] = doc["join_id"] + ("#hit" if retry else "")
        op.replies.append({"doc": doc, "latency": latency,
                           "done": time.perf_counter() - self.start,
                           "retry": retry})
        return doc

    def _run_op(self, client, op: _Op) -> None:
        if op.label == "chain":
            step = self.setup.pages(op.tree1, op.tree2)
            doc = {"na": 0}
            options = dict(op.options)
            for _ in range(MAX_SLICES):
                options["max_na"] = doc["na"] + step
                doc = self._send(client, op, options)
                if doc["status"] != "partial":
                    return
                options["resume_token"] = doc["resume_token"]
            return
        self._send(client, op, op.options)
        if op.key is not None:
            self._send(client, op, op.options, retry=True)

    @property
    def requests(self) -> list[dict]:
        return [r for op in self.ops for r in op.replies]


# -- checking ---------------------------------------------------------------

_BUFFERS = {"path": PathBuffer, "none": NoBuffer}


def _make_buffer(spec: str):
    if spec.startswith("lru:"):
        return LRUBuffer(int(spec[4:]))
    return _BUFFERS[spec]()


class _Checker:
    """Oracle answers and direct joins, computed once per distinct query."""

    def __init__(self, setup: _Setup):
        self.setup = setup
        self._pairs: dict = {}
        self._direct: dict = {}

    def pairs(self, t1, t2):
        if (t1, t2) not in self._pairs:
            self._pairs[t1, t2] = oracle.brute_force_pairs(
                self.setup.data[t1].items, self.setup.data[t2].items)
        return self._pairs[t1, t2]

    def direct(self, t1, t2, buffer):
        key = (t1, t2, buffer)
        if key not in self._direct:
            self._direct[key] = spatial_join(
                self.setup.trees[t1], self.setup.trees[t2],
                buffer=_make_buffer(buffer), collect_pairs=False)
        return self._direct[key]

    def answer(self, op: _Op, doc: dict) -> list[str]:
        """Checks every complete answer must pass."""
        if doc.get("status") != "complete":
            return [f"status {doc.get('status')!r}"]
        expected = self.pairs(op.tree1, op.tree2)
        problems = oracle.check_counts(doc["na"], doc["da"])
        if doc["pair_count"] != len(expected):
            problems.append(f"pair_count {doc['pair_count']} != oracle "
                            f"{len(expected)}")
        if op.options.get("collect_pairs"):
            problems += oracle.check_pairs(doc.get("pairs", []), expected)
        if op.options.get("strategy") == "pbsm":
            problems += oracle.check_pbsm(
                doc, self.setup.pages(op.tree1, op.tree2))
        else:
            problems += oracle.check_same_access(doc, self.direct(
                op.tree1, op.tree2, op.options.get("buffer", "path")))
        return problems

    def op(self, op: _Op) -> list[str]:
        if not op.replies:
            return ["no reply"]
        docs = [r["doc"] for r in op.replies]
        problems = []
        for doc in docs[:-1] if op.label == "chain" else ():
            if doc.get("status") != "partial":
                problems.append(f"chain slice status {doc.get('status')!r}")
            problems += oracle.check_counts(doc["na"], doc["da"])
        problems += self.answer(op, docs[0] if op.key else docs[-1])
        if op.key is not None:
            if len(docs) != 2:
                return problems + ["keyed operation lacks its retry"]
            problems += oracle.check_replay(docs[0], docs[1])
        return problems


def _check_recovery(setup: _Setup, keyed: list[_Op]) -> dict:
    """Replay every completed key from a freshly recovered service."""
    service = JoinService(ServeConfig(port=None,
                                      state_dir=str(setup.state_dir)))
    try:
        service.recover()
        problems = {}
        for op in keyed:
            if not op.replies:
                continue
            replay = service.execute({"tree1": op.tree1,
                                      "tree2": op.tree2,
                                      "idempotency_key": op.key,
                                      **op.options})
            found = oracle.check_replay(op.replies[0]["doc"], replay)
            if found:
                problems[id(op)] = ["after recovery: " + p for p in found]
        return problems
    finally:
        service.durable.close()


# -- the workload -------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool,
        scratch: Path) -> Outcome:
    durable = workload == "serve-durable"
    out = Outcome(workload)
    rec = SpanRecorder()
    rec.enabled = trace
    setups = []
    setup = None
    try:
        for i in range(SETUPS):
            if setup is not None:
                setup.discard()
            t0 = time.perf_counter()
            setup = _Setup(seed, scratch / f"setup{i}", durable, rec)
            setups.append(time.perf_counter() - t0)
        setup_spans = list(rec.spans)
        rec.enabled = False
        rec.spans.clear()
        if trace:
            plain = _Window(setup, seed, "a", seconds / 2, durable, rec)
            before = _server_state(setup)
            _install(rec)
            rec.enabled = True
            # The same rounds again (fresh keys), so the overhead ratio
            # compares equal work.
            win = _Window(setup, seed, "b", None, durable, rec,
                          plain.rounds)
            rec.enabled = False
            after = _server_state(setup)
            windows = (plain, win)
        else:
            win = _Window(setup, seed, "", seconds, durable, rec)
            windows = (win,)
            out.put("peak_rss_mb", peak_rss_mb())
        setup.close()
        _verify(out, setup, windows, durable)
        if trace:
            out.put("trace.overhead_ratio",
                    (win.wall / win.rounds) / (plain.wall / plain.rounds))
            _per_layer(out, rec, setup_spans, win, before, after)
            rec.spans[:0] = setup_spans
            out.spans = rec
        else:
            _end_to_end(out, win, statistics.median(setups))
        return out
    finally:
        rec.uninstall()
        if setup is not None and setup.hosted.thread.is_alive():
            setup.close()


def _verify(out: Outcome, setup: _Setup, windows, durable: bool) -> None:
    checker = _Checker(setup)
    ops = [op for w in windows for op in w.ops]
    recovered = (_check_recovery(setup, [op for op in ops if op.key])
                 if durable else {})
    raised = {id(op): msg for w in windows for op, msg in w.errors}
    for op in ops:
        problems = ([raised[id(op)]] if id(op) in raised
                    else checker.op(op))
        out.record(op.label, problems + recovered.get(id(op), []))


def _server_state(setup: _Setup) -> dict:
    snap = setup.client.metrics()
    journal = (setup.state_dir / "journal.jsonl"
               if setup.state_dir is not None else None)
    return {"counters": snap.get("counters", {}),
            "gauges": snap.get("gauges", {}),
            "journal_bytes": (journal.stat().st_size
                              if journal is not None and journal.exists()
                              else 0)}


def _install(rec: SpanRecorder) -> None:
    """Wrap the layer entry points the service calls internally."""
    seen: set[str] = set()
    seen_lock = threading.Lock()

    def tag_request(span, args, result):
        rid = result.get("join_id")
        with seen_lock:
            hit = rid in seen
            seen.add(rid)
        span.ctx["rid"] = f"{rid}#hit" if hit else rid

    def tag_strategy(span, args, result):
        span.attrs["strategy"] = args[0].config.strategy

    def tag_log(span, args, result):
        span.attrs["log"] = args[0].path.name

    rec.wrap(JoinService, "execute", "serve.execute",
             ctx_fn=lambda a, k: {}, after=tag_request)
    rec.wrap(CostAdmission, "admit", "serve.admit")
    rec.wrap(SpatialJoin, "run", "join.run", after=tag_strategy)
    rec.wrap(SpatialJoin, "resume", "join.resume")
    rec.count(ExecutionGovernor, "check", "governor_check")
    rec.wrap(service_module, "encode_resume_token", "serve.token")
    rec.wrap(service_module, "decode_resume_token", "serve.token")
    rec.wrap(JsonlLog, "append", "serve.durable.append", after=tag_log)


def _answers(win: _Window) -> list[dict]:
    """Executed, complete join answers: one per plain request, the last
    reply of a chain; replays of a key are not executions."""
    docs = []
    for op in win.ops:
        if not op.replies:
            continue
        doc = op.replies[0 if op.key else -1]["doc"]
        if doc.get("status") == "complete":
            docs.append(doc)
    return docs


def _end_to_end(out: Outcome, win: _Window, setup_s: float) -> None:
    latencies = [r["latency"] * 1e3 for r in win.requests]
    # Rates are the median over equal slices of the window, so a burst
    # of interference on the machine moves one slice, not the result.
    slices = max(1, int(win.wall / SLICE_S))
    width = win.wall / slices
    requests = [0] * slices
    objects = [0] * slices
    sizes = {name: n for name, (_gen, n) in TREES.items()}
    for op in win.ops:
        for r in op.replies:
            i = min(int(r["done"] / width), slices - 1)
            requests[i] += 1
            if r["doc"].get("status") == "complete":
                objects[i] += sizes[op.tree1] + sizes[op.tree2]
    out.put("setup_s", setup_s)
    out.put("pipeline_objects_per_s", median(objects) / width, slices)
    out.put("request_p50_ms", percentile(latencies, 50), len(latencies))
    out.put("request_p90_ms", percentile(latencies, 90), len(latencies))
    out.put("requests_per_s", median(requests) / width, slices)


def _per_layer(out: Outcome, rec: SpanRecorder, setup_spans, win: _Window,
               before: dict, after: dict) -> None:
    def per_setup(name):
        return sum(s.seconds for s in setup_spans if s.name == name) / SETUPS

    inserts = [s.seconds * 1e6 for s in setup_spans
               if s.name == "rtree.insert"]
    out.put("datasets.generate_s", per_setup("datasets.generate"))
    out.put("rtree.insert_s", per_setup("rtree.insert"))
    out.put("rtree.insert_us_p50", median(inserts), len(inserts))
    out.put("geometry.arena_build_s", per_setup("geometry.arena_build"))
    out.put("io.save_tree_s", per_setup("io.save_tree"))
    out.put("io.load_tree_s", per_setup("io.load_tree"))

    rounds = win.rounds
    executes = rec.named("serve.execute")
    by_rid = {s.rid: s for s in executes}
    joins = rec.named("join.run") + rec.named("join.resume")
    # Join time per executed request, split by engine.
    join_ms: dict[tuple, float] = {}
    for s in joins:
        engine = s.attrs.get("strategy", "sync")
        join_ms[s.rid, engine] = join_ms.get((s.rid, engine), 0.0) \
            + s.seconds * 1e3
    sync_ms = [v for (rid, eng), v in join_ms.items() if eng == "sync"]
    pbsm_ms = [v for (rid, eng), v in join_ms.items() if eng == "pbsm"]
    resumes = [s.seconds * 1e3 for s in rec.named("join.resume")]
    checks = sum(s.attrs.get("governor_check_calls", 0) for s in joins)
    check_s = sum(s.attrs.get("governor_check_s", 0.0) for s in joins)
    executed = len(set(s.rid for s in executes if not str(s.rid)
                       .endswith("#hit")))
    answers = _answers(win)
    na = sum(d["na"] for d in answers)
    da = sum(d["da"] for d in answers)

    admits = [s.seconds * 1e6 for s in rec.named("serve.admit")]
    out.put("estimator.estimate_s",
            sum(admits) / 1e6 / rounds)
    # Eq. 7/10 price a path-buffered SJ run: compare only those.
    plain_path = [op.replies[0]["doc"] for op in win.ops
                  if op.label in PATH_SYNC and op.replies]
    out.put("costmodel.na_abs_rel_err", _mean_err(plain_path, "na"),
            len(plain_path))
    out.put("costmodel.da_abs_rel_err", _mean_err(plain_path, "da"),
            len(plain_path))
    out.put("join.run_s", sum(s.seconds for s in joins) / rounds)
    out.put("join.run_ms_p50", median(sync_ms), len(sync_ms))
    out.put("join.pbsm_ms_p50", median(pbsm_ms), len(pbsm_ms))
    out.put("join.resume_ms_p50", median(resumes), len(resumes))
    out.put("join.comparisons",
            sum(d["comparisons"] for d in answers) / len(answers),
            len(answers))
    out.put("join.na", na / len(answers), len(answers))
    out.put("join.da", da / len(answers), len(answers))
    out.put("storage.da_per_na", da / na)
    out.put("exec.governor_checks_per_join", checks / executed, executed)
    out.put("exec.governor_check_s", check_s / rounds)

    exec_ms = [s.seconds * 1e3 for s in executes]
    self_ms = [v * 1e3 for v in rec.self_seconds(executes)]
    tokens = [s.seconds * 1e3 for s in rec.named("serve.token")]
    transport = []
    for r in win.requests:
        span = by_rid.get(r["doc"]["join_id"] + ("#hit" if r["retry"]
                                                 else ""))
        if span is not None:
            transport.append((r["latency"] - span.seconds) * 1e3)
    sizes = [len(json.dumps(r["doc"])) + 1 for r in win.requests]
    out.put("serve.execute_ms_p50", median(exec_ms), len(exec_ms))
    out.put("serve.self_ms_p50", median(self_ms), len(self_ms))
    out.put("serve.admit_us_p50", median(admits), len(admits))
    out.put("serve.token_ms_p50", median(tokens), len(tokens))
    out.put("serve.transport_ms_p50", median(transport), len(transport))
    out.put("serve.response_kb_per_join",
            statistics.fmean(sizes) / 1024.0, len(sizes))

    appends = [s.seconds * 1e3 for s in rec.named("serve.durable.append")
               if s.attrs.get("log") == "journal.jsonl"]
    fsyncs = (after["gauges"].get("serve.journal.fsyncs", 0)
              - before["gauges"].get("serve.journal.fsyncs", 0))
    out.put("serve.durable.journal_ms_p50", median(appends), len(appends))
    out.put("serve.durable.fsyncs_per_join", fsyncs / executed, executed)
    out.put("serve.durable.bytes_per_join",
            (after["journal_bytes"] - before["journal_bytes"]) / executed,
            executed)
    hits = [r["latency"] * 1e3 for r in win.requests if r["retry"]]
    out.put("serve.idempotent_hit_ms_p50", median(hits), len(hits))
    registry_na = (after["counters"].get("join.na", 0)
                   - before["counters"].get("join.na", 0))
    out.put("obs.join_na_registry_ratio", registry_na / na)


def _mean_err(docs, key) -> float:
    errs = [abs(d[f"predicted_{key}"] - d[key]) / d[key] for d in docs]
    return statistics.fmean(errs) if errs else 0.0
