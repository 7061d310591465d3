"""Chain-of-subalgebras eigenvalues, interlacing and polytope membership.

Batched first: `chain_batch` extracts the chain data of a stack of orbit
points, and every other function here reads such a batch.  A single point
is a batch of one; `chain_spectrum` returns a per-point view of it.

For the su/sp/so-unitary cases the chain data is the Gelfand-Tsetlin
pattern: ascending spectra lt^(r) of nested upper-left minors of the
level-0 block W+^dag m W+ (m itself for Grassmannians, its leading n x n
block for ci, where W+ = (1; 0)), mapped affinely to Nijenhuis eigenvalues
lam = -2*lt + offset.  For diii, W+ = (1; i 1)/sqrt 2 and the compression
is read from the real N x N blocks of m as (m11 + m22 + i (m12 - m21)) / 2,
so the real m stack is never copied to complex.

Each row comes from the smallest exact problem that yields it, on the
precondition that the inputs are orbit points: a 1 x 1 minor is its
diagonal entry, a 2 x 2 one has the closed form mean -+ hypot((a - d)/2,
|b|), and a larger one goes to eigvalsh.  On aiii, -i m + (k/n) 1 is a
rank-k orthogonal projector, and complementary principal blocks of a
projector share their non-trivial spectrum (mu <-> 1 - mu, the CS
decomposition), so a minor whose complement is smaller is read from the
complement.  On diii the pairing doubles every eigenvalue of the top row
(plus 1/2 at odd n), so at n = 3 and n = 4 that row is read from tr H
and ||H - c||_F, and row 3 of n = 4, whose outer entries the doubled
parent pins, from one more trace.  At n >= 5 the doubled values pin
entries 0, 2, 4, ... of row 2, so the top row is copied from row 2 and
the n x n block is never solved.  Every row of Gr(1, 4), Gr(2, 4),
diii:n=3 and diii:n=4 then takes no eigensolver; ci rows of size >= 3
and diii rows of size 3 to n - 1 at n >= 5 keep eigvalsh.

For the real-Grassmannian (bdi) cases the data is the (a_k, b_k) family:
+-i a_k is the rank-2 spectrum of the upper-left so-block, b_k the single
off-diagonal entry of the split-off so(2), and
lam^(k)_pm = +-a_k - sum_{j<=k} b_j + 1.  m = g rho g^T has rank 2 (rho
does), so each block B is real antisymmetric of rank <= 2 and
a_k = ||B||_F / sqrt 2 exactly: a norm, no eigensolve.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConventionError

GT_TAGS = ("aiii", "ci", "diii")
SLACK = 1e-9        # allowed violation of an interlacing/polytope margin


def eigenvalue_map_constants(case):
    """(slope, offset) of the eigenvalue map lam = slope*lt + offset."""
    return -2.0, case.map_offset


def top_row_constants(case):
    """Exact constant top row (ascending) for the aiii pattern."""
    k, n = case.params["k"], case.params["n"]
    return np.array([-k / n] * (n - k) + [(n - k) / n] * k)


# Per-case chain bookkeeping: free masks, row levels and the positions of
# the free entries in the concatenated rows (GT cases, None for bdi), then
# the free-eigenvalue labels and the raw-coordinate labels.  A mask marks
# the free coordinates of its chain row; frozen ones are pinned by the
# exact multiplicity structure of the case: coinciding interlacing bounds
# (aiii), the even-multiplicity pairing plus the odd-size constant (diii).
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

    aiii and ci read minors of m itself (ci's V+ compression is its leading
    block); diii first compresses each point to V+ from the blocks of m.
    GT cases give {"kind": "gt", "rows": [(S, nb - r) ascending
    spectra]}, aiii's row 0 (eig m, which no reader takes) the exact top
    row, and diii's leading rows the ones `_paired_rows` fixes (at
    n >= 5 the top row, copied from row 2); bdi gives {"kind": "ab",
    "a": (S, n_a), "b": (S, n_b)}.
    """
    ms = np.asarray(ms)
    if case.tag in GT_TAGS:
        n = case.params["n"]
        if case.tag == "diii":
            # W+ = (1; i 1)/sqrt 2; the block form is linear in m, so a
            # complex m is read the same way
            b0 = ((ms[:, :n, :n] + ms[:, n:, n:])
                  + 1j * (ms[:, :n, n:] - ms[:, n:, :n])) / 2
        else:
            b0 = ms[:, :n, :n]      # aiii: all of m; ci: W+ = (1; 0)
        nb = b0.shape[1]
        if case.tag == "aiii":
            top = top_row_constants(case)
            rows = [np.broadcast_to(top, (len(ms), nb))] + [
                _grassmannian_row(case, b0, top, size)
                for size in range(nb - 1, 0, -1)]
        else:
            paired = _paired_rows(b0) if case.tag == "diii" else []
            rows = paired + [_minor_spectrum(b0[:, :size, :size])
                             for size in range(nb - len(paired), 0, -1)]
        return {"kind": "gt", "rows": rows}
    if np.abs(ms.imag).max(initial=0.0) > 1e-9:
        raise ConventionError("bdi moment matrix must be real")
    amb = case.alg.size
    mr = ms.real
    a, b = [], []
    for k in range(1, amb // 2 + (amb % 2)):
        size = amb - 2 * k
        if size >= 3:
            # m = g rho g^T has rank 2, so the minor B is real antisymmetric
            # of rank <= 2 with spectrum {+-i a, 0, ...}: ||B||_F^2 = 2 a^2
            blk = mr[:, :size, :size]
            a.append(np.sqrt(np.vecdot(blk, blk).sum(axis=1) / 2))
        elif size == 2:
            # final even step: keep the sign (smooth global coordinate)
            a.append(mr[:, 0, 1])
        b.append(mr[:, amb - 2 * k, amb - 2 * k + 1])
    return {"kind": "ab", "a": np.stack(a, axis=1), "b": np.stack(b, axis=1)}


def _minor_spectrum(blk):
    """Ascending spectrum (S, s) of -i blk for a stack of s x s blocks of
    an orbit point: the diagonal at s = 1, the closed form at s = 2,
    LAPACK above.  The closed forms read what eigvalsh reads: the real part
    of the diagonal and the lower off-diagonal entry (Re(-i z) = Im z).
    The radius is a square root of squares, not np.abs of a complex entry,
    whose last bit depends on the stride of the stack."""
    size = blk.shape[-1]
    if size == 1:
        return blk[:, :, 0].imag.copy()         # a row, not a view of ms
    if size == 2:
        a, d, b = blk[:, 0, 0].imag, blk[:, 1, 1].imag, blk[:, 1, 0]
        mean, half = (a + d) / 2, (a - d) / 2
        rad = np.sqrt(half * half + (b.real * b.real + b.imag * b.imag))
        return np.stack([mean - rad, mean + rad], axis=1)
    return np.linalg.eigvalsh(-1j * blk)


def _paired_rows(b0):
    """The diii rows that the pairing fixes, for n >= 3 (none at n <= 2):
    H = -i b0 has every eigenvalue twice, plus 1/2 when n is odd, and
    1/2 is then its largest (H compresses -i m, whose spectrum is +-1/2).
    At n = 3 the top row is (a, a, 1/2), a read from tr H.  At n = 4
    it is (c - d, c - d, c + d, c + d): c = tr H / 4, and H - c has
    spectrum +-d, so d = ||H - c||_F / 2, a sum of squares (no np.abs of a
    complex entry, as in the 2 x 2 radius).  Row 3 interlaces a doubled
    parent, which pins its outer entries: (c - d, x, c + d), x from the
    trace of the 3 x 3 minor.  At n >= 5 the doubled parent pins entries
    0, 2, 4, ... of row 2 in the same way, so the top row is those
    entries taken twice (then 1/2 at odd n), and only row 2 is solved.
    Entries are summed one by one, so a batch of one is bitwise its row in
    any stack."""
    n = b0.shape[-1]
    if n >= 5:
        row2 = _minor_spectrum(b0[:, :n - 1, :n - 1])
        top = np.repeat(row2[:, 0::2], 2, axis=1)
        if n % 2:
            top = np.concatenate([top, np.full((len(top), 1), 0.5)], axis=1)
        return [top, row2]
    if n not in (3, 4):
        return []
    h = [b0[:, i, i].imag for i in range(n)]      # the diagonal of H
    tr3 = h[0] + h[1] + h[2]
    if n == 3:
        a = (tr3 - 0.5) / 2
        return [np.stack([a, a, np.full_like(a, 0.5)], axis=1)]
    c = (tr3 + h[3]) / 4
    off = sum(z.real * z.real + z.imag * z.imag
              for z in (b0[:, i, j] for i in range(1, n) for j in range(i)))
    d = np.sqrt(sum((x - c) ** 2 for x in h) + 2 * off) / 2
    lo, hi = c - d, c + d
    return [np.stack([lo, lo, hi, hi], axis=1),
            np.stack([lo, tr3 - 2 * c, hi], axis=1)]


def _grassmannian_row(case, m, top, size):
    """Ascending spectrum (S, size) of -i m[:size, :size] on aiii.

    P = -i m + (k/n) 1 is a rank-k orthogonal projector, so the minor is
    P11 - k/n with P11 = P[:size, :size].  When its complement
    Q = P[size:, size:] is the smaller block, P11 is read from Q by the CS
    decomposition: generically P11 has max(0, size - k) eigenvalues 0,
    max(0, k - q) eigenvalues 1 (q = n - size), and the rest are 1 - nu
    over Q's eigenvalues nu in (0, 1), once Q's own max(0, q - k) zeros
    and max(0, k - size) ones are dropped.  Both sides are continuous in m
    and agree on the dense generic set, so everywhere on the orbit.  The
    structural values are written as the top row's constants -k/n and
    (n - k)/n, equal to the bounds they meet in the interlacing.
    """
    k, n = case.params["k"], case.params["n"]
    q = n - size
    if q >= size:
        return _minor_spectrum(m[:, :size, :size])
    nu = _minor_spectrum(m[:, size:, size:]) + k / n        # spectrum of Q
    inner = nu[:, max(0, q - k):q - max(0, k - size)]       # nu in (0, 1)
    zeros, ones = max(0, size - k), max(0, k - q)
    row = np.empty((len(m), size))
    row[:, :zeros] = top[0]
    row[:, size - ones:] = top[-1]
    row[:, zeros:size - ones] = (1.0 - inner[:, ::-1]) - k / n
    return row


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


def chain_spectrum(case, m):
    """Chain data at the orbit point m (a batch of one of chain_batch);
    raises ConventionError if its interlacing is violated."""
    batch = chain_batch(case, np.asarray(m)[None])
    viol = batch_margins(case, batch)["interlacing"][0]
    if not viol <= SLACK:
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

def gt_interlace_check(parent, child):
    """Margin of parent_i <= child_i <= parent_{i+1}: the worst violation
    per sample, <= 0 when child interlaces parent.

    Rows run along the last axis; leading axes are samples.
    """
    parent = np.asarray(parent, float)
    child = np.asarray(child, float)
    if child.shape[-1] != parent.shape[-1] - 1:
        raise ConventionError("child row must be one shorter than parent")
    lo = np.max(parent[..., :-1] - child, axis=-1, initial=-np.inf)
    hi = np.max(child - parent[..., 1:], axis=-1, initial=-np.inf)
    return np.maximum(lo, hi)


def batch_margins(case, batch):
    """Worst margin per sample and constraint (<= 0 means satisfied).

    Keys: 'interlacing' (GT interlacing, or the bdi cone with a_0 = 1),
    plus 'lower_bound'/'upper_bound' (ci) and 'pairing' (diii).
    """
    if batch["kind"] == "gt":
        rows = batch["rows"]
        worst = np.full(rows[0].shape[0], -np.inf)
        for parent, child in zip(rows[:-1], rows[1:]):
            worst = np.maximum(worst, gt_interlace_check(parent, child))
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


def batch_violations(case, batch, values=None):
    """Count samples violating any polytope/interlacing margin (should be 0).

    A margin that is not <= SLACK is violated, nan included; given values
    (S, k), a sample whose values are not all finite is counted as well.
    """
    worst = np.max(np.stack(list(batch_margins(case, batch).values())), axis=0)
    bad = ~(worst <= SLACK)
    if values is not None:
        bad |= ~np.isfinite(values).all(axis=1)
    return int(bad.sum())


def polytope_membership(case, cs):
    """Case polytope test at one point; returns (ok, margins dict)."""
    margins = {k: float(v[0]) for k, v in batch_margins(case, cs.batch).items()}
    return all(v <= SLACK for v in margins.values()), margins


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
