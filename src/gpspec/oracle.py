"""Independent brute-force verification paths.

Nothing in this module knows about quadratic-form representations: graphs
are built element by element from an explicit field model, eigenvalues come
from additive character sums or a dense symmetric eigensolver, and code
weights from trace evaluations.  Agreement of these routes with the closed
formulas is the central anti-regression property of the repository.

The dense eigensolver is hybrid: a hand-rolled Jacobi for graphs up to
JACOBI_MAX_N vertices (an easy correctness argument and a second numeric
route that never calls LAPACK), numpy.linalg.eigvalsh above.  The Jacobi
sweeps in round-robin (Brent-Luk) order: each sweep is n-1 rounds (n rounded
up to even) of n/2 disjoint index pairs, and one round rotates all of its
pairs at once with vectorized row and column updates.

Either engine solves the matrix as two blocks.  A DenseGraph carries an
involution sigma that its constructor checks, on the matrix, to be an
automorphism; A then commutes with sigma and keeps each of sigma's +1 and -1
eigenspaces, so A's spectrum is exactly the union of the spectra of its two
blocks on them (see ``dense_eigenvalues``).  ``build_graph`` supplies
x -> 1 - x (p = 2) or x -> -x (odd p), which halve the blocks: field
arithmetic, checked like any sigma, with no character or quadratic form.

numpy is imported inside the functions that use it, so importing this
module (and with it ``gpspec`` and the CLI) does not load numpy; only an
oracle call does.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import BadInput, BadK, CapExceeded, NoConvergence, NonIntegral, OutOfScope
from .ff import FieldSpec, make_field, kth_power_residues
from .spectra import GraphSpec, Spectrum, Variant

#: Default caps; the CLI's --dense-cap and --char-cap default to them.  The code
#: weights walk the same field tables as the character sums, so CHAR_CAP bounds both.
DENSE_CAP = 1500
CHAR_CAP = 300_000

#: Largest matrix handed to the cyclic Jacobi under engine="auto".
JACOBI_MAX_N = 128

_JACOBI_OFF_TOL = 1e-10
_JACOBI_MAX_SWEEPS = 40
_ROUND_TOL = 1e-6
_CLUSTER_TOL = 1e-4


class DenseGraph:
    """Explicit symmetric 0/1 adjacency matrix with loop bookkeeping, and an
    automorphism of order at most 2 (``involution``, the identity when None)
    that the dense eigensolver splits the matrix by."""

    def __init__(self, adjacency: np.ndarray, involution: np.ndarray | None = None):
        import numpy as np

        adjacency = np.asarray(adjacency)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise BadInput("adjacency must be square")
        if not ((adjacency == 0) | (adjacency == 1)).all():
            raise BadInput("adjacency entries must be 0/1")
        adjacency = adjacency.astype(np.uint8, copy=False)
        if not np.array_equal(adjacency, adjacency.T):
            raise BadInput("adjacency must be symmetric")
        q = adjacency.shape[0]
        identity = np.arange(q)
        sigma = identity if involution is None else np.asarray(involution)
        if sigma.shape != (q,) or sigma.dtype.kind not in "iu" or not ((0 <= sigma) & (sigma < q)).all():
            raise BadInput(f"involution must be {q} vertex indices")
        if not np.array_equal(sigma[sigma], identity):
            raise BadInput("involution must have order at most 2")
        if not np.array_equal(adjacency.take(sigma, axis=0).take(sigma, axis=1), adjacency):
            raise BadInput("involution must be an automorphism of the graph")
        self.adjacency = adjacency
        self.involution = sigma
        self.q = q
        self.loop_count = int(np.trace(adjacency))

    def row_sums(self) -> np.ndarray:
        return self.adjacency.sum(axis=1, dtype="int64")

    def degree(self) -> int:
        sums = self.row_sums()
        if sums.min() != sums.max():
            raise BadInput("graph is not regular")
        return int(sums[0])


def _code_table(p: int, m: int, sign: int) -> np.ndarray:
    """table[v, w] = the code of w + sign*v in F_{p^m}, sign = +-1, as int32.

    Codes are base-p digit vectors and addition is digitwise mod p, so the
    table over the first i+1 digits is p x p blocks of the table over the
    first i: block (a, b), for digit i of v and of w, shifted by
    p^i * ((b + sign*a) mod p).
    """
    import numpy as np

    digits = np.arange(p, dtype=np.int32)
    step = (digits[None, :] + sign * digits[:, None]) % p
    table = np.zeros((1, 1), dtype=np.int32)
    for i in range(m):
        size = p ** i
        table = (step[:, None, :, None] * size + table[None, :, None, :]).reshape(p * size, p * size)
    return table


def build_graph(g: GraphSpec, dense_cap: int = DENSE_CAP) -> DenseGraph:
    """Materialize the graph: edge v~w iff w-v in R_k (GP) or v+w in R_k
    (sum graph); complement variants flip the off-diagonal bits.

    The involution is x -> c - x: c = 1 for p = 2 (a translation, which every
    Cayley and sum graph in characteristic 2 admits; no fixed points), c = 0
    for odd p when R_k = -R_k (one fixed point, 0), else the identity.
    """
    import numpy as np

    q = g.q
    if q > dense_cap:
        raise CapExceeded(f"q = {q} exceeds the dense cap {dense_cap}")
    fld = make_field(g.p, g.m)
    residues = kth_power_residues(fld, g.k)
    in_r = np.zeros(q, dtype=np.uint8)
    in_r[list(residues)] = 1

    summing = g.variant in (Variant.GPSUM, Variant.GPSUM_COMPLEMENT)
    adj = in_r[_code_table(g.p, g.m, 1 if summing else -1)]
    if g.variant in (Variant.GP_COMPLEMENT, Variant.GPSUM_COMPLEMENT):
        diag = np.diag(adj).copy()
        adj = 1 - adj
        np.fill_diagonal(adj, diag)

    c = 1 if g.p == 2 else 0
    weights = g.p ** np.arange(g.m)
    digits = np.arange(q)[:, None] // weights % g.p
    digits[:, 0] -= c                             # the digits of x - c
    sigma = (-digits % g.p) @ weights
    if g.p != 2 and not np.array_equal(in_r[sigma], in_r):
        sigma = None
    return DenseGraph(adj, sigma)


# ---------------------------------------------------------------------------
# Character sums
# ---------------------------------------------------------------------------

def _coset_trace_counts(fld: FieldSpec, k: int) -> list[list[int]]:
    """For each j < k, how often each t in [0, p) is Tr(w^(j + k*i)) over
    i < (q-1)/k, w the generator: the trace tallies of the coset w^j R_k."""
    import numpy as np

    traces = np.asarray(fld.trace_table)[np.asarray(fld.exp_table)]
    return [np.bincount(traces[j::k], minlength=fld.p).tolist() for j in range(k)]


def char_sum_spectrum(g: GraphSpec, char_cap: int = CHAR_CAP) -> Spectrum:
    """Eigenvalues of GP(k, q) as additive character sums over R_k.

    For gamma != 0,  lambda_gamma = sum over x in R_k of e^(2 pi i Tr(gamma x)/p),
    and lambda_0 = |R_k| = n is the principal eigenvalue.  Multiplying gamma
    by a k-th power permutes R_k, so lambda_gamma depends only on the coset
    of dlog(gamma) mod k; one sum per coset covers all q characters, each
    coset accounting for n of them.  A coset's sum is exact counts of its
    traces times the p values of the character, added with compensation.
    Every sum must round to an integer with residual below 1e-6.
    """
    if g.variant is not Variant.GP:
        raise BadInput("char_sum_spectrum expects the GP variant")
    q = g.q
    if q > char_cap:
        raise CapExceeded(f"q = {q} exceeds the character cap {char_cap}")
    if (q - 1) % g.k != 0:
        raise BadK(f"k = {g.k} does not divide q - 1 = {q - 1}")
    n = (q - 1) // g.k
    cos_t = [math.cos(2 * math.pi * t / g.p) for t in range(g.p)]
    sin_t = [math.sin(2 * math.pi * t / g.p) for t in range(g.p)]

    pairs = [(n, 1)]
    for counts in _coset_trace_counts(make_field(g.p, g.m), g.k):
        re = math.fsum(c * cos_t[t] for t, c in enumerate(counts))
        im = math.fsum(c * sin_t[t] for t, c in enumerate(counts))
        val = round(re)
        residual = max(abs(im), abs(re - val))
        if residual >= 1e-6:
            raise NonIntegral(residual)
        pairs.append((val, n))
    return Spectrum.from_pairs(pairs, n, q, loops=0)


# ---------------------------------------------------------------------------
# Dense symmetric eigensolver
# ---------------------------------------------------------------------------

def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """One sweep's rounds (i, j) of disjoint pairs i < j that cover every pair
    of range(n) once: slots 0..n-1 (n rounded up to even) sit in two rows
    facing each other, slot 0 stays put and the others move one place round
    per round; a pair with the padding slot n (n odd) is dropped."""
    import numpy as np

    size = n + n % 2
    half = size // 2
    slots = np.arange(size)
    rounds = []
    for _ in range(size - 1):
        top, bottom = slots[:half], slots[:half - 1:-1]
        low, high = np.minimum(top, bottom), np.maximum(top, bottom)
        rounds.append((low[high < n], high[high < n]))
        slots = np.concatenate(([0], np.roll(slots[1:], 1)))
    return rounds


def _jacobi_eigenvalues(a: np.ndarray, off_tol: float = _JACOBI_OFF_TOL,
                        max_sweeps: int = _JACOBI_MAX_SWEEPS) -> np.ndarray:
    """Jacobi in round-robin order: each round rotates away its disjoint
    off-diagonal pairs at once, until the off-diagonal Frobenius norm drops
    below off_tol at the start of a sweep."""
    import numpy as np

    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    if n == 1:
        return a[0].copy()
    off_mask = ~np.eye(n, dtype=bool)
    rounds = _round_robin(n)
    for _ in range(max_sweeps):
        # summed from the off-diagonal entries themselves: the difference
        # of two large sums would bottom out at cancellation noise
        off = math.sqrt(float((a[off_mask] ** 2).sum()))
        if off < off_tol:
            return np.sort(np.diag(a))
        for i, j in rounds:
            keep = np.abs(a[i, j]) >= off_tol / (4 * n * n)
            i, j = i[keep], j[keep]
            if not len(i):
                continue
            # disjoint pairs: each rotation touches only rows and columns i, j of its own pair
            tau = (a[j, j] - a[i, i]) / (2.0 * a[i, j])
            t = np.where(tau == 0, 1.0, np.sign(tau) / (np.abs(tau) + np.hypot(1.0, tau)))
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            rows_i, rows_j = a[i, :], a[j, :]
            a[i, :] = c[:, None] * rows_i - s[:, None] * rows_j
            a[j, :] = s[:, None] * rows_i + c[:, None] * rows_j
            cols_i, cols_j = a[:, i], a[:, j]
            a[:, i] = cols_i * c - cols_j * s
            a[:, j] = cols_i * s + cols_j * c
    raise NoConvergence(max_sweeps)


def dense_eigenvalues(d: DenseGraph, engine: str = "auto") -> np.ndarray:
    """Raw (unrounded) eigenvalues, ascending.  engine: auto|jacobi|lapack,
    auto meaning the Jacobi up to JACOBI_MAX_N vertices.

    The engine solves the two blocks of A on the +1 and -1 eigenspaces of
    the involution sigma, an automorphism checked on the matrix when the
    DenseGraph was made, so A commutes with sigma and the union of the two
    block spectra is A's spectrum exactly.  With the vertices ordered as
    P (the x < sigma(x)), sigma(P), then the fixed points F:
    B+ = [[A_PP + A_P,sigma(P), sqrt(2) A_PF], [sqrt(2) A_FP, A_FF]] and
    B- = A_PP - A_P,sigma(P).
    """
    import numpy as np

    if engine == "auto":
        engine = "jacobi" if d.q <= JACOBI_MAX_N else "lapack"
    if engine not in ("jacobi", "lapack"):
        raise BadInput(f"unknown engine {engine!r}")
    sigma = d.involution
    vertices = np.arange(d.q)
    pairs = vertices[vertices < sigma]
    h = len(pairs)
    order = np.concatenate([pairs, sigma[pairs], vertices[vertices == sigma]])
    a = d.adjacency.take(order, axis=0).take(order, axis=1)
    # A_sigma(P),sigma(P) = A_PP and A_sigma(P),F = A_PF, since sigma is an automorphism
    plus = a[h:, h:].astype(np.float64)
    plus[:h, :h] += a[:h, h:2 * h]
    plus[:h, h:] *= math.sqrt(2)
    plus[h:, :h] *= math.sqrt(2)
    minus = a[:h, :h] - a[:h, h:2 * h].astype(np.float64)
    del a
    solve = _jacobi_eigenvalues if engine == "jacobi" else np.linalg.eigvalsh
    return np.sort(np.concatenate([solve(plus), solve(minus)]))


def dense_spectrum(d: DenseGraph, engine: str = "auto", cap: int = DENSE_CAP) -> Spectrum:
    """Integer spectrum of a regular DenseGraph via the dense eigensolver.

    Eigenvalues are clustered at tolerance 1e-4 and each cluster must sit
    within 1e-6 of an integer; callers wanting the raw real values use
    ``dense_eigenvalues`` directly.
    """
    if d.q > cap:
        raise CapExceeded(f"q = {d.q} exceeds the dense-spectrum cap {cap}")
    degree = d.degree()
    values = dense_eigenvalues(d, engine=engine)

    clusters: list[list[float]] = [[float(values[0])]]
    for v in values[1:]:
        if float(v) - clusters[-1][-1] < _CLUSTER_TOL:
            clusters[-1].append(float(v))
        else:
            clusters.append([float(v)])
    pairs = []
    for cluster in clusters:
        target = round(math.fsum(cluster) / len(cluster))
        residual = max(abs(v - target) for v in cluster)
        if residual >= _ROUND_TOL:
            raise NonIntegral(residual)
        pairs.append((target, len(cluster)))
    return Spectrum.from_pairs(pairs, degree, d.q, loops=d.loop_count)


# ---------------------------------------------------------------------------
# Irreducible cyclic code weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightDistribution:
    """Hamming weight -> frequency for the trace code attached to (k, q)."""

    entries: tuple[tuple[int, int], ...]
    order: int

    def __post_init__(self):
        weights = [w for w, _ in self.entries]
        if weights != sorted(weights) or len(set(weights)) != len(weights):
            raise ValueError("entries must be sorted by weight and merged")
        if sum(f for _, f in self.entries) != self.order:
            raise ValueError("frequencies must sum to the number of codewords")

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)


def code_weight_distribution(k: int, p: int, m: int,
                             char_cap: int = CHAR_CAP) -> WeightDistribution:
    """Weights of the q codewords (Tr(gamma w^(k i)))_{i < n}, w primitive.

    Needs k | (q-1)/(p-1) so the code length is n = (q-1)/k.  Codewords of
    the gamma = w^j with equal j mod k are cyclic shifts of each other, so
    one weight per coset is evaluated and tallied with frequency n; the
    zero codeword contributes weight 0 once.
    """
    q = p ** m
    if q > char_cap:
        raise CapExceeded(f"q = {q} exceeds the character cap {char_cap}")
    if ((q - 1) // (p - 1)) % k != 0:
        raise OutOfScope(f"{k} does not divide (q-1)/(p-1) = {(q - 1) // (p - 1)}")
    n = (q - 1) // k
    tally: Counter[int] = Counter({0: 1})
    for counts in _coset_trace_counts(make_field(p, m), k):
        tally[n - counts[0]] += n
    return WeightDistribution(tuple(sorted(tally.items())), q)


def weight_eigenvalue_check(k: int, p: int, m: int, char_cap: int = CHAR_CAP) -> bool:
    """True iff mapping weights through  lambda = n - p*w/(p-1)  reproduces
    the character-sum spectrum exactly, frequencies as multiplicities; both
    oracles run under char_cap."""
    dist = code_weight_distribution(k, p, m, char_cap=char_cap)
    q = p ** m
    n = (q - 1) // k
    mapped = []
    for w, freq in dist.entries:
        num = n * (p - 1) - p * w
        lam, rem = divmod(num, p - 1)
        if rem:
            return False
        mapped.append((lam, freq))
    mapped.sort(key=lambda t: -t[0])
    spectrum = char_sum_spectrum(GraphSpec(k, p, m), char_cap=char_cap)
    return tuple(mapped) == spectrum.entries
