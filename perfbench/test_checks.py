"""The benchmark's checks accept right answers and reject wrong ones.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro import (Estimator, PathBuffer, RStarTree, spatial_join,
                   uniform_rectangles)

from perfbench import oracle, serving


def _tree(data, ndim=2, m=8):
    tree = RStarTree(ndim, m)
    for rect, oid in data:
        tree.insert(rect, oid)
    return tree


def _doc(result) -> dict:
    """A served-style answer built from a direct join result."""
    return {"na": result.na_total, "da": result.da_total,
            "na_by_tree": {"R1": result.na("R1"), "R2": result.na("R2")},
            "da_by_tree": {"R1": result.da("R1"), "R2": result.da("R2")}}


@pytest.fixture(scope="module")
def case():
    data1 = uniform_rectangles(150, 0.6, 2, seed=11)
    data2 = uniform_rectangles(90, 0.6, 2, seed=12)
    tree1, tree2 = _tree(data1), _tree(data2)
    return {"data1": data1, "data2": data2, "tree1": tree1,
            "tree2": tree2,
            "result": spatial_join(tree1, tree2, buffer=PathBuffer()),
            "expected": oracle.brute_force_pairs(data1.items,
                                                 data2.items)}


def test_brute_force_matches_rect_intersects(case):
    want = sorted((o1, o2) for (r1, o1), (r2, o2) in itertools.product(
        case["data1"].items, case["data2"].items) if r1.intersects(r2))
    assert [tuple(p) for p in case["expected"].tolist()] == want


def test_touching_boxes_overlap():
    from repro.geometry import Rect
    a = [(Rect([0.0, 0.0], [0.5, 0.5]), 0)]
    b = [(Rect([0.5, 0.5], [0.7, 0.7]), 1)]
    assert oracle.brute_force_pairs(a, b).tolist() == [[0, 1]]


def test_right_answer_passes(case):
    res = case["result"]
    assert oracle.check_pairs(res.pairs, case["expected"]) == []
    assert oracle.check_counts(res.na_total, res.da_total) == []
    assert oracle.check_same_access(_doc(res), res) == []


def test_dropped_pair_is_rejected(case):
    pairs = list(case["result"].pairs)
    pairs.pop(random.Random(3).randrange(len(pairs)))
    assert oracle.check_pairs(pairs, case["expected"])


def test_duplicated_pair_is_rejected(case):
    pairs = list(case["result"].pairs)
    pairs[0] = pairs[1]
    assert oracle.check_pairs(pairs, case["expected"])


def test_perturbed_na_is_rejected(case):
    res = case["result"]
    doc = _doc(res)
    doc["na"] += 1
    assert oracle.check_same_access(doc, res)
    doc = _doc(res)
    doc["na_by_tree"]["R2"] += 1
    assert oracle.check_same_access(doc, res)


def test_swapped_tree_roles_are_rejected(case):
    swapped = spatial_join(case["tree2"], case["tree1"],
                           buffer=PathBuffer())
    assert oracle.check_pairs(swapped.pairs, case["expected"])
    assert oracle.check_same_access(_doc(swapped), case["result"])


def test_da_above_na_is_rejected():
    assert oracle.check_counts(10, 11)
    assert oracle.check_counts(10, 10) == []


def test_pbsm_page_count(case):
    pages = sum(sum(1 for _ in t.nodes()) - 1
                for t in (case["tree1"], case["tree2"]))
    assert oracle.check_pbsm({"na": pages, "da": pages}, pages) == []
    assert oracle.check_pbsm({"na": pages + 1, "da": pages + 1}, pages)
    assert oracle.check_pbsm({"na": pages, "da": pages - 1}, pages)


@pytest.mark.parametrize("n1,n2,d,m,ndim", [
    (400, 600, 0.5, 16, 2), (560, 840, 0.5, 16, 1),
    (2000, 300, 1.2, 24, 2), (60, 5000, 0.3, 8, 2), (5, 7, 0.1, 16, 2)])
def test_recomputed_estimate_matches_the_program(n1, n2, d, m, ndim):
    est = Estimator.from_stats(n1, d, n2, d, m, ndim)
    want = oracle.uniform_join_estimate(n1, d, n2, d, m, ndim)
    assert oracle.check_estimate((est.na(), est.da()), want) == []


def test_perturbed_estimate_is_rejected():
    want = oracle.uniform_join_estimate(400, 0.5, 600, 0.5, 16, 2)
    assert oracle.check_estimate((want[0] * 1.001, want[1]), want)
    assert oracle.check_estimate(want[::-1], want)


def test_replay_must_be_identical():
    doc = {"join_id": "j1", "na": 3, "pairs": [[1, 2]]}
    assert oracle.check_replay(doc, dict(doc)) == []
    assert oracle.check_replay(doc, {**doc, "na": 4})


class _StubSetup:
    """Just what the serve checker reads from a set-up."""

    def __init__(self, case):
        self.data = {"a": case["data1"], "b": case["data2"]}
        self.trees = {"a": case["tree1"], "b": case["tree2"]}
        self.nonroot = {k: sum(1 for _ in t.nodes()) - 1
                        for k, t in self.trees.items()}

    pages = serving._Setup.pages


def _served(case, **extra) -> dict:
    res = case["result"]
    return {**_doc(res), "status": "complete",
            "pair_count": res.pair_count,
            "pairs": [list(p) for p in res.pairs], **extra}


def _op(label, options, docs, key=None):
    op = serving._Op(label, "a", "b", options, key)
    op.replies = [{"doc": d, "latency": 0.0, "retry": i > 0}
                  for i, d in enumerate(docs)]
    return op


def test_served_checker(case):
    checker = serving._Checker(_StubSetup(case))
    pairs = {"collect_pairs": True}
    good = _served(case)
    assert checker.op(_op("small", pairs, [good])) == []

    dropped = _served(case)
    dropped["pairs"] = dropped["pairs"][1:]
    assert checker.op(_op("small", pairs, [dropped]))
    assert checker.op(_op("small", {}, [_served(case, pair_count=1)]))
    assert checker.op(_op("small", {}, [_served(case, na=good["na"] + 2)]))

    partial = _served(case, status="partial")
    assert checker.op(_op("chain", pairs, [partial, good])) == []
    assert checker.op(_op("chain", pairs, [good, good]))
    assert checker.op(_op("chain", pairs, [partial]))

    replay = dict(good, join_id="j9")
    assert checker.op(_op("keyed", pairs, [good, dict(good)], "k")) == []
    assert checker.op(_op("keyed", pairs, [good, replay], "k"))

    pages = _StubSetup(case).pages("a", "b")
    pbsm = {"strategy": "pbsm"}
    assert checker.op(_op("pbsm", pbsm, [_served(case, na=pages,
                                                 da=pages)])) == []
    assert checker.op(_op("pbsm", pbsm, [good]))
