"""Chain-of-subalgebras eigenvalues, interlacing and polytope membership.

Batched first: `chain_batch` extracts the chain data of a stack of orbit
points, and every other function here reads such a batch.  A single point
is a batch of one; `chain_spectrum` returns a per-point view of it.

For the su/sp/so-unitary cases the chain data is the Gelfand-Tsetlin
pattern: ascending spectra lt^(r) of nested upper-left minors of the
level-0 block (m itself for Grassmannians, the V+ compression W^dag m W
otherwise), mapped affinely to Nijenhuis eigenvalues lam = -2*lt + offset.

For the real-Grassmannian (bdi) cases the data is the (a_k, b_k) family:
+-i a_k is the rank-2 spectrum of the upper-left so-block, b_k the single
off-diagonal entry of the split-off so(2), and
lam^(k)_pm = +-a_k - sum_{j<=k} b_j + 1.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConventionError

GT_TAGS = ("aiii", "ci", "diii")


def eigenvalue_map_constants(case):
    """(slope, offset) of the eigenvalue map lam = slope*lt + offset."""
    return -2.0, case.map_offset


def top_row_constants(case):
    """Exact constant top row (ascending) for the aiii pattern."""
    k, n = case.params["k"], case.params["n"]
    return np.array([-k / n] * (n - k) + [(n - k) / n] * k)


def free_masks(case):
    """Boolean masks (one per chain row) marking the free coordinates.

    Frozen coordinates are pinned by the exact multiplicity structure of
    the case: coinciding interlacing bounds (aiii), the even-multiplicity
    pairing plus the odd-size constant (diii).  bdi coordinates are all
    free and handled separately.
    """
    if case.tag not in GT_TAGS:
        raise ConventionError(f"free_masks: not a GT-chain case: {case.tag}")
    return _layout(case).masks


# Per-case chain bookkeeping: free masks, row levels and the positions of
# the free entries in the concatenated rows (GT cases, None for bdi), then
# the free-eigenvalue labels and the raw-coordinate labels.
_Layout = namedtuple("_Layout", "masks levels free_index free_labels raw_labels")


def _layout(case):
    return _build_layout(case.tag, tuple(case.params.items()))


@lru_cache(maxsize=None)
def _build_layout(tag, params):
    """The cached layout, shared by every caller: tuples and read-only arrays."""
    p = dict(params)
    if tag in GT_TAGS:
        n = p["n"]
        if tag == "aiii":
            # free where the interlacing bounds differ: top[i] < top[i + r]
            split = n - p["k"]
            masks = [np.zeros(n, dtype=bool)] + [
                np.array([i < split <= i + r for i in range(n - r)])
                for r in range(1, n)]
        elif tag == "ci":
            masks = [np.ones(n - r, dtype=bool) for r in range(n)]
        else:
            m0 = np.zeros(n, dtype=bool)
            m0[0:2 * (n // 2):2] = True          # one representative per pair
            m1 = np.zeros(n - 1, dtype=bool)
            m1[1::2] = True                      # entries between the pairs
            masks = [m0, m1] + [np.ones(n - r, dtype=bool) for r in range(2, n)]
        levels = list(range(n)) if tag == "aiii" else list(range(1, n + 1))
        raw = [f"l{lv}_{i + 1}" for lv, mk in zip(levels, masks)
               for i in range(len(mk))]
        free_index = np.flatnonzero(np.concatenate(masks))
        for arr in masks + [free_index]:
            arr.flags.writeable = False
        return _Layout(tuple(masks), tuple(levels), free_index,
                       tuple(raw[i] for i in free_index), tuple(raw))
    amb = p["m"]
    n_pair = amb // 2 - 1
    free = [f"l{k}{s}" for k in range(1, n_pair + 1) for s in "+-"]
    if amb % 2:
        free.append(f"l{n_pair + 1}")
    raw = ([f"a{k + 1}" for k in range(n_pair)]
           + [f"b{k + 1}" for k in range(n_pair + amb % 2)])
    return _Layout(None, None, None, tuple(free), tuple(raw))


def free_labels(case):
    """Labels of the free eigenvalues, in the column order of the free map."""
    return _layout(case).free_labels


def raw_labels(case):
    """Labels of the raw chain coordinates: l<level>_<index>, or a<k>, b<k>."""
    return _layout(case).raw_labels


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def chain_batch(case, ms):
    """Chain data of a stack of orbit points (S, N, N).

    ci/diii first compress each point to V+ as W+^dag m W+ (stacked
    matrix products); aiii reads minors of m itself.  GT cases give
    {"kind": "gt", "rows": [(S, nb - r) ascending spectra]}; bdi gives
    {"kind": "ab", "a": (S, n_a), "b": (S, n_b)}.
    """
    ms = np.asarray(ms)
    if case.tag in GT_TAGS:
        if case.tag == "aiii":
            b0 = ms
        else:
            b0 = case.w_plus.conj().T @ ms @ case.w_plus
        nb = b0.shape[1]
        rows = [np.linalg.eigvalsh(-1j * b0[:, : nb - r, : nb - r]) for r in range(nb)]
        return {"kind": "gt", "rows": rows}
    if np.abs(ms.imag).max(initial=0.0) > 1e-9:
        raise ConventionError("bdi moment matrix must be real")
    amb = case.alg.size
    mr = ms.real
    a, b = [], []
    for k in range(1, amb // 2 + (amb % 2)):
        size = amb - 2 * k
        if size >= 3:
            w = np.linalg.eigvalsh(-1j * mr[:, :size, :size].astype(complex))
            a.append(np.maximum(w[:, -1], 0.0))
        elif size == 2:
            # final even step: keep the sign (smooth global coordinate)
            a.append(mr[:, 0, 1])
        b.append(mr[:, amb - 2 * k, amb - 2 * k + 1])
    return {"kind": "ab", "a": np.stack(a, axis=1), "b": np.stack(b, axis=1)}


@dataclass
class ChainSpectrum:
    """Labeled chain data at one orbit point: a view of a batch of one.

    gt: `rows` (ascending lt per level), `levels`, `masks`; bdi: `a`
    (nonneg block values, the last signed if even) and `b` (so(2) entries).
    """

    case: object
    batch: dict

    def __post_init__(self):
        self.kind = self.batch["kind"]
        self.masks, self.levels = _layout(self.case)[:2]
        self.rows = ([row[0] for row in self.batch["rows"]]
                     if self.kind == "gt" else None)
        self.a, self.b = ((self.batch["a"][0], self.batch["b"][0])
                          if self.kind == "ab" else (None, None))

    def free_values(self):
        """Sorted mapped free eigenvalues (length n_eig)."""
        return np.sort(free_value_map(self.case, self.batch)[0])

    def labeled_entries(self):
        """(label, mapped free eigenvalue) pairs in label order."""
        return list(zip(free_labels(self.case),
                        free_value_map(self.case, self.batch)[0]))

    def raw_labeled(self):
        """(label, raw chain coordinate) pairs: GT rows, or a then b."""
        vals = np.concatenate([self.a, self.b] if self.kind == "ab" else self.rows)
        return list(zip(raw_labels(self.case), vals))


def chain_spectrum(case, m, validate=True, slack=1e-9):
    """Chain data at the orbit point m (a batch of one of chain_batch)."""
    batch = chain_batch(case, np.asarray(m)[None])
    if validate:
        viol = batch_margins(case, batch)["interlacing"][0]
        if viol > slack:
            raise ConventionError(
                f"interlacing violated by {viol:.3e} at a point of {case.name}")
    return ChainSpectrum(case, batch)


# ---------------------------------------------------------------------------
# free eigenvalues
# ---------------------------------------------------------------------------

def free_value_map(case, batch):
    """Mapped free eigenvalues per sample, (S, n_eig) in free_labels order."""
    slope, offset = eigenvalue_map_constants(case)
    if batch["kind"] == "gt":
        free = np.concatenate(batch["rows"], axis=1)[:, _layout(case).free_index]
        return slope * free + offset
    a, b = batch["a"], batch["b"]
    s = np.cumsum(b, axis=1)
    n_pair = a.shape[1]
    out = np.empty((len(a), case.n_eig))
    out[:, 0:2 * n_pair:2] = a - s[:, :n_pair] + 1.0          # l<k>+
    out[:, 1:2 * n_pair:2] = -a - s[:, :n_pair] + 1.0         # l<k>-
    if b.shape[1] == n_pair + 1:            # odd ambient size
        out[:, -1] = 1.0 - s[:, -1]
    return out


def batch_free_values(case, batch):
    """(labels, mapped free eigenvalues (S, n_eig), the same sorted per row)."""
    data = free_value_map(case, batch)
    return free_labels(case), data, np.sort(data, axis=1)


def chain_free_vector(case, m):
    """All free mapped eigenvalues in fixed label order (for fd gradients):
    (n_eig,) at one point, (..., n_eig) for a stack (..., N, N)."""
    m = np.asarray(m)
    vals = free_value_map(case, chain_batch(case, m.reshape((-1,) + m.shape[-2:])))
    return vals.reshape(m.shape[:-2] + vals.shape[-1:])


# ---------------------------------------------------------------------------
# inequalities
# ---------------------------------------------------------------------------

def gt_interlace_check(parent, child, slack=0.0):
    """child interlaces parent: parent_i <= child_i <= parent_{i+1} (+slack).

    Rows run along the last axis; leading axes are samples.  Returns
    (ok, margin) where margin is the worst violation per sample (<= 0 if
    ok with room to spare).
    """
    parent = np.asarray(parent, float)
    child = np.asarray(child, float)
    if child.shape[-1] != parent.shape[-1] - 1:
        raise ConventionError("child row must be one shorter than parent")
    lo = np.max(parent[..., :-1] - child, axis=-1, initial=-np.inf)
    hi = np.max(child - parent[..., 1:], axis=-1, initial=-np.inf)
    margin = np.maximum(lo, hi)
    return margin <= slack, margin


def batch_margins(case, batch):
    """Worst margin per sample and constraint (<= 0 means satisfied).

    Keys: 'interlacing' (GT interlacing, or the bdi cone with a_0 = 1),
    plus 'lower_bound'/'upper_bound' (ci) and 'pairing' (diii).
    """
    if batch["kind"] == "gt":
        rows = batch["rows"]
        if case.tag == "aiii":
            rows = [np.broadcast_to(top_row_constants(case), rows[0].shape)] + rows[1:]
        worst = np.full(rows[0].shape[0], -np.inf)
        for parent, child in zip(rows[:-1], rows[1:]):
            worst = np.maximum(worst, gt_interlace_check(parent, child)[1])
        margins = {"interlacing": worst}
        lt0 = rows[0]
        if case.tag == "ci":
            margins["lower_bound"] = (-0.5 - lt0).max(axis=1)
            margins["upper_bound"] = (lt0 - 0.5).max(axis=1)
        if case.tag == "diii":
            n = case.params["n"]
            margins["pairing"] = np.abs(lt0[:, 0:2 * (n // 2):2]
                                        - lt0[:, 1:2 * (n // 2):2]).max(axis=1)
        return margins
    a, b = batch["a"], batch["b"]
    # a_0 = 1, and a trailing 0 for odd ambient size (one more b than a)
    aa = np.abs(np.concatenate([np.ones((len(a), 1)), a,
                                np.zeros((len(a), b.shape[1] - a.shape[1]))], axis=1))
    drop = aa[:, :-1] - aa[:, 1:]
    cone = np.maximum(-drop, np.abs(b) - drop)
    return {"interlacing": cone.max(axis=1)}


def batch_violations(case, batch, slack=1e-9):
    """Count samples violating any polytope/interlacing margin (should be 0)."""
    worst = np.max(np.stack(list(batch_margins(case, batch).values())), axis=0)
    return int((worst > slack).sum())


def polytope_membership(case, cs, slack=1e-9):
    """Case polytope test at one point; returns (ok, margins dict)."""
    margins = {k: float(v[0]) for k, v in batch_margins(case, cs.batch).items()}
    return all(v <= slack for v in margins.values()), margins


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------

def gap_regularity(case, batch):
    """Smallest separation per sample controlling smoothness of the labeled
    eigenvalue functions; small values sit near a Weyl-chamber wall.

    diii rows first collapse theorem-exact duplicates (values within 1e-7
    of the last kept one) to single values.
    """
    if batch["kind"] == "ab":
        # |.|-extraction kinks at a_k = 0; the signed final even value is a
        # plain matrix entry and stays smooth.
        a = batch["a"]
        n_abs = a.shape[1] if case.alg.size % 2 else a.shape[1] - 1
        return np.abs(a[:, :n_abs]).min(axis=1, initial=np.inf)
    floor = 1e-7 if case.tag == "diii" else -np.inf
    sep = np.full(batch["rows"][0].shape[0], np.inf)
    for row, mk in zip(batch["rows"], _layout(case).masks):
        vals = np.sort(row if case.tag == "diii" else row[:, mk], axis=1)
        if vals.shape[1] == 0:
            continue
        last = vals[:, 0]
        for j in range(1, vals.shape[1]):
            step = vals[:, j] - last
            keep = step > floor
            sep = np.where(keep, np.minimum(sep, step), sep)
            last = np.where(keep, vals[:, j], last)
    return sep
