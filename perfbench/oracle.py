"""Independent answers and the properties every benchmark answer must have.

Nothing here calls into ``repro``: the pair sets come from a NumPy
brute-force overlap test over the raw rectangles, and the uniform
Eq. 2-7/10 estimates are recomputed from the paper's formulas.  The
checks return a list of human-readable problems (empty when the answer
is right), so a run can count failed operations instead of stopping at
the first one.
"""

from __future__ import annotations

import math

import numpy as np

#: Rows of the left rectangle set compared per brute-force block; keeps
#: the oracle's temporary arrays at a few MiB whatever the input size.
_CHUNK = 256


def rect_arrays(items) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lo, hi, oids)`` arrays from ``(rect, oid)`` items."""
    lo = np.array([list(r.lo) for r, _ in items], dtype=np.float64)
    hi = np.array([list(r.hi) for r, _ in items], dtype=np.float64)
    oids = np.array([o for _, o in items], dtype=np.int64)
    return lo, hi, oids


def brute_force_pairs(items1, items2) -> np.ndarray:
    """Every ``(oid1, oid2)`` whose closed boxes share a point, sorted.

    Returned as an ``(n, 2)`` int64 array in lexicographic order.
    """
    lo1, hi1, oid1 = rect_arrays(items1)
    lo2, hi2, oid2 = rect_arrays(items2)
    found = []
    for start in range(0, len(oid1), _CHUNK):
        a_lo = lo1[start:start + _CHUNK, None, :]
        a_hi = hi1[start:start + _CHUNK, None, :]
        hit = np.all((a_lo <= hi2[None, :, :])
                     & (lo2[None, :, :] <= a_hi), axis=2)
        rows, cols = np.nonzero(hit)
        found.append(np.stack([oid1[start + rows], oid2[cols]], axis=1))
    if not found:
        return np.empty((0, 2), dtype=np.int64)
    pairs = np.concatenate(found)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]


def as_pair_array(pairs) -> np.ndarray:
    """A pair list (tuples or 2-lists) as a sorted ``(n, 2)`` array."""
    arr = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    return arr[order]


# -- Eqs. 2-7/10, recomputed ------------------------------------------------

class UniformParams:
    """Eqs. 2-5 for one uniform data set of ``n`` objects, density ``d``."""

    def __init__(self, n: int, d: float, m: int, ndim: int,
                 fill: float = 0.67):
        cm = fill * m
        self.n, self.ndim, self.cm = n, ndim, cm
        self.height = 1 if n <= cm else 1 + math.ceil(math.log(n / cm, cm))
        dens = [d]
        for _ in range(self.height):
            prev = dens[-1]
            dens.append((1.0 + (prev ** (1.0 / ndim) - 1.0)
                         / cm ** (1.0 / ndim)) ** ndim)
        self.dens = dens

    def nodes(self, level: int) -> float:
        return 1.0 if level >= self.height else self.n / self.cm ** level

    def side(self, level: int) -> float:
        if level >= self.height:
            return 1.0
        nodes = self.nodes(level)
        if nodes <= 0.0:
            return 0.0
        return min((self.dens[level] / nodes) ** (1.0 / self.ndim), 1.0)


def _intsect(n: float, s: float, q: float, ndim: int) -> float:
    return n * min(1.0, s + q) ** ndim


def uniform_join_estimate(n1: int, d1: float, n2: int, d2: float, m: int,
                          ndim: int) -> tuple[float, float]:
    """``(NA, DA)`` of Eqs. 7/11 and 10/12 (path buffer, R1 = data)."""
    p1 = UniformParams(n1, d1, m, ndim)
    p2 = UniformParams(n2, d2, m, ndim)
    h1, h2 = p1.height, p2.height
    na = da = 0.0
    prev1, prev2 = h1, h2
    for t in range(max(h1, h2) - 1):
        j1, j2 = max(1, h1 - 1 - t), max(1, h2 - 1 - t)
        pairs = p2.nodes(j2) * _intsect(p1.nodes(j1), p1.side(j1),
                                        p2.side(j2), ndim)
        charged1 = j1 < h1
        charged2 = j2 < h2
        na += pairs * charged1 + pairs * charged2
        da += pairs * charged1
        if charged2 and j2 < prev2:
            # Eq. 8: an R2 node is re-read once per intersecting R1
            # parent (the level R1 was visited at one stage earlier).
            da += p2.nodes(j2) * _intsect(p1.nodes(prev1), p1.side(prev1),
                                          p2.side(j2), ndim)
        prev1, prev2 = j1, j2
    return na, da


# -- checks ------------------------------------------------------------------

def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_pairs(got, expected: np.ndarray) -> list[str]:
    """The answer's pairs equal the oracle's: none dropped, none extra,
    none duplicated, R1's object first."""
    arr = as_pair_array(got)
    if len(arr) != len(expected):
        return [f"pair count {len(arr)} != oracle {len(expected)}"]
    if not np.array_equal(arr, expected):
        return ["pair set differs from the brute-force oracle"]
    return []


def check_counts(na: int, da: int) -> list[str]:
    """DA never exceeds NA: a page read from disk was also accessed."""
    return [] if da <= na else [f"DA {da} > NA {na}"]


def check_same_access(doc: dict, ref) -> list[str]:
    """Served NA/DA (total and per tree) equal a direct join's."""
    problems = []
    if doc["na"] != ref.na_total or doc["da"] != ref.da_total:
        problems.append(f"NA/DA {doc['na']}/{doc['da']} != direct "
                        f"{ref.na_total}/{ref.da_total}")
    for key, fn in (("na_by_tree", ref.na), ("da_by_tree", ref.da)):
        by_tree = doc.get(key)
        if by_tree is None:
            continue
        want = {"R1": fn("R1"), "R2": fn("R2")}
        if by_tree != want:
            problems.append(f"{key} {by_tree} != direct {want}")
    return problems


def check_pbsm(doc: dict, pages: int) -> list[str]:
    """PBSM reads every non-root page of both trees exactly once."""
    if doc["na"] == doc["da"] == pages:
        return []
    return [f"PBSM NA/DA {doc['na']}/{doc['da']} != non-root pages "
            f"{pages}"]


def check_estimate(got: tuple[float, float],
                   want: tuple[float, float]) -> list[str]:
    """The program's Eq. 7/10 estimate equals the recomputation."""
    if close(got[0], want[0]) and close(got[1], want[1]):
        return []
    return [f"estimate NA/DA {got} != recomputed {want}"]


def check_replay(original: dict, replay: dict) -> list[str]:
    """A retried idempotency key answers the recorded response."""
    return [] if original == replay else [
        "replayed response differs from the original"]
