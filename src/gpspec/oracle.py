"""Independent brute-force verification paths.

Nothing in this module knows about quadratic-form representations: graphs
are built element by element from an explicit field model, eigenvalues come
from additive character sums or a dense symmetric eigensolver, and code
weights from trace evaluations.  Agreement of these routes with the closed
formulas is the central anti-regression property of the repository.

The dense eigensolver is hybrid, following common practice: a hand-rolled
cyclic Jacobi for small matrices (easy correctness argument, used as a
second numeric route), LAPACK via numpy.linalg.eigvalsh above the size
threshold where pure-Python Jacobi gets slow.
"""
from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import BadInput, BadK, CapExceeded, NoConvergence, NonIntegral, OutOfScope
from .ff import make_field, kth_power_residues
from .spectra import GraphSpec, Spectrum, Variant

#: Default caps; the CLI's --dense-cap and --char-cap default to the first two.
DENSE_CAP = 1500
CHAR_CAP = 300_000
CODEWORD_CAP = 100_000

#: Largest matrix handed to the cyclic Jacobi under engine="auto".
JACOBI_MAX_N = 128

_JACOBI_OFF_TOL = 1e-10
_JACOBI_MAX_SWEEPS = 40
_ROUND_TOL = 1e-6
_CLUSTER_TOL = 1e-4


class DenseGraph:
    """Explicit symmetric 0/1 adjacency matrix with loop bookkeeping."""

    def __init__(self, adjacency: np.ndarray):
        adjacency = np.asarray(adjacency, dtype=np.uint8)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise BadInput("adjacency must be square")
        if not np.array_equal(adjacency, adjacency.T):
            raise BadInput("adjacency must be symmetric")
        if adjacency.max(initial=0) > 1:
            raise BadInput("adjacency entries must be 0/1")
        self.adjacency = adjacency
        self.q = adjacency.shape[0]
        self.loop_count = int(np.trace(adjacency))

    def row_sums(self) -> np.ndarray:
        return self.adjacency.sum(axis=1, dtype=np.int64)

    def degree(self) -> int:
        sums = self.row_sums()
        if sums.min() != sums.max():
            raise BadInput("graph is not regular")
        return int(sums[0])


def build_graph(g: GraphSpec, dense_cap: int = DENSE_CAP) -> DenseGraph:
    """Materialize the graph: edge v~w iff w-v in R_k (GP) or v+w in R_k
    (sum graph); complement variants flip the off-diagonal bits."""
    q = g.q
    if q > dense_cap:
        raise CapExceeded(f"q = {q} exceeds the dense cap {dense_cap}")
    fld = make_field(g.p, g.m)
    residues = kth_power_residues(fld, g.k)
    in_r = np.zeros(q, dtype=bool)
    in_r[list(residues)] = True

    summing = g.variant in (Variant.GPSUM, Variant.GPSUM_COMPLEMENT)
    adj = np.zeros((q, q), dtype=np.uint8)
    codes = np.arange(q)
    if g.p == 2:
        # char 2: w - v == w + v == w XOR v on digit vectors
        for v in range(q):
            adj[v] = in_r[codes ^ v]
    else:
        digits = np.empty((q, g.m), dtype=np.int64)
        for i in range(g.m):
            digits[:, i] = codes // g.p ** i % g.p
        powers = g.p ** np.arange(g.m)
        for v in range(q):
            combined = (digits + digits[v]) % g.p if summing else (digits - digits[v]) % g.p
            adj[v] = in_r[combined @ powers]

    if g.variant in (Variant.GP_COMPLEMENT, Variant.GPSUM_COMPLEMENT):
        diag = np.diag(adj).copy()
        adj = 1 - adj
        np.fill_diagonal(adj, diag)
    return DenseGraph(adj)


# ---------------------------------------------------------------------------
# Character sums
# ---------------------------------------------------------------------------

def char_sum_spectrum(g: GraphSpec, char_cap: int = CHAR_CAP) -> Spectrum:
    """Eigenvalues of GP(k, q) as additive character sums over R_k.

    For gamma != 0,  lambda_gamma = sum over x in R_k of e^(2 pi i Tr(gamma x)/p),
    and lambda_0 = |R_k| = n is the principal eigenvalue.  Multiplying gamma
    by a k-th power permutes R_k, so lambda_gamma depends only on the coset
    of dlog(gamma) mod k; one compensated sum per coset covers all q
    characters, each coset accounting for n of them.  Every sum must round
    to an integer with residual below 1e-6.
    """
    if g.variant is not Variant.GP:
        raise BadInput("char_sum_spectrum expects the GP variant")
    q = g.q
    if q > char_cap:
        raise CapExceeded(f"q = {q} exceeds the character cap {char_cap}")
    if (q - 1) % g.k != 0:
        raise BadK(f"k = {g.k} does not divide q - 1 = {q - 1}")
    fld = make_field(g.p, g.m)
    n = (q - 1) // g.k

    exp_table = fld.exp_table
    trace_table = fld.trace_table
    tr_of_exp = [trace_table[e] for e in exp_table]
    cos_t = [math.cos(2 * math.pi * t / g.p) for t in range(g.p)]
    sin_t = [math.sin(2 * math.pi * t / g.p) for t in range(g.p)]

    pairs = [(n, 1)]
    for j in range(g.k):
        # fixed accumulation order: i ascending over the residue enumeration
        traces = [tr_of_exp[j + g.k * i] for i in range(n)]
        re = math.fsum(cos_t[t] for t in traces)
        im = math.fsum(sin_t[t] for t in traces)
        val = round(re)
        residual = max(abs(im), abs(re - val))
        if residual >= 1e-6:
            raise NonIntegral(residual)
        pairs.append((val, n))
    return Spectrum.from_pairs(pairs, n, q, loops=0)


def char_sum_eigenvalue(g: GraphSpec, gamma: int) -> complex:
    """The raw character sum for one gamma (no rounding); a per-character
    reference point for the coset-collapsed spectrum above."""
    fld = make_field(g.p, g.m)
    residues = sorted(kth_power_residues(fld, g.k))
    trace_table = fld.trace_table
    return sum(cmath.exp(2j * cmath.pi * trace_table[fld.mul(gamma, x)] / g.p) for x in residues)


# ---------------------------------------------------------------------------
# Dense symmetric eigensolver
# ---------------------------------------------------------------------------

def _jacobi_eigenvalues(a: np.ndarray, off_tol: float = _JACOBI_OFF_TOL,
                        max_sweeps: int = _JACOBI_MAX_SWEEPS) -> np.ndarray:
    """Cyclic Jacobi: rotate away every off-diagonal pair per sweep until the
    off-diagonal Frobenius norm drops below off_tol."""
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    if n == 1:
        return a[0].copy()
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(max_sweeps):
        # summed from the off-diagonal entries themselves: the difference
        # of two large sums would bottom out at cancellation noise
        off = math.sqrt(float((a[off_mask] ** 2).sum()))
        if off < off_tol:
            return np.sort(np.diag(a))
        for i in range(n - 1):
            for j in range(i + 1, n):
                aij = a[i, j]
                if abs(aij) < off_tol / (4 * n * n):
                    continue
                tau = (a[j, j] - a[i, i]) / (2.0 * aij)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau)) if tau else 1.0
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rows = a[[i, j], :]
                a[i, :] = c * rows[0] - s * rows[1]
                a[j, :] = s * rows[0] + c * rows[1]
                cols = a[:, [i, j]]
                a[:, i] = c * cols[:, 0] - s * cols[:, 1]
                a[:, j] = s * cols[:, 0] + c * cols[:, 1]
    raise NoConvergence(max_sweeps)


def dense_eigenvalues(d: DenseGraph, engine: str = "auto") -> np.ndarray:
    """Raw (unrounded) eigenvalues, ascending.  engine: auto|jacobi|lapack."""
    if engine == "auto":
        engine = "jacobi" if d.q <= JACOBI_MAX_N else "lapack"
    if engine == "jacobi":
        return _jacobi_eigenvalues(d.adjacency)
    if engine == "lapack":
        return np.linalg.eigvalsh(d.adjacency.astype(np.float64))
    raise BadInput(f"unknown engine {engine!r}")


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
                             codeword_cap: int = CODEWORD_CAP) -> WeightDistribution:
    """Weights of the q codewords (Tr(gamma w^(k i)))_{i < n}, w primitive.

    Needs k | (q-1)/(p-1) so the code length is n = (q-1)/k.  Codewords of
    the gamma = w^j with equal j mod k are cyclic shifts of each other, so
    one weight per coset is evaluated and tallied with frequency n; the
    zero codeword contributes weight 0 once.
    """
    q = p ** m
    if q > codeword_cap:
        raise CapExceeded(f"q = {q} exceeds the codeword cap {codeword_cap}")
    if ((q - 1) // (p - 1)) % k != 0:
        raise OutOfScope(f"{k} does not divide (q-1)/(p-1) = {(q - 1) // (p - 1)}")
    fld = make_field(p, m)
    n = (q - 1) // k
    trace_table = fld.trace_table
    nonzero = [trace_table[e] != 0 for e in fld.exp_table]
    tally: Counter[int] = Counter({0: 1})
    for j in range(k):
        w = sum(1 for i in range(n) if nonzero[j + k * i])
        tally[w] += n
    return WeightDistribution(tuple(sorted(tally.items())), q)


def weight_eigenvalue_check(k: int, p: int, m: int,
                            char_cap: int = CHAR_CAP,
                            codeword_cap: int = CODEWORD_CAP) -> bool:
    """True iff mapping weights through  lambda = n - p*w/(p-1)  reproduces
    the character-sum spectrum exactly, frequencies as multiplicities."""
    dist = code_weight_distribution(k, p, m, codeword_cap=codeword_cap)
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
