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

Either engine solves the matrix block by block.  A DenseGraph carries the
orbits of a cyclic vertex permutation sigma that its constructor checks, on
the matrix, to be an automorphism; A is then block-circulant over the orbits,
and a discrete Fourier transform along them splits A's spectrum exactly into
the spectra of small blocks (see ``dense_eigenvalues``).  ``build_graph``
supplies x -> w^k x, w the field's generator: w^k lies in R_k, so every edge
rule respects it, and its k orbits, the cosets w^j R_k, leave blocks of at
most 2k rows.  It is field arithmetic, checked like any sigma, with no
character, trace or quadratic form.

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

#: Largest graph whose blocks go to the cyclic Jacobi under engine="auto".
JACOBI_MAX_N = 128

_JACOBI_OFF_TOL = 1e-10
_JACOBI_MAX_SWEEPS = 40
_ROUND_TOL = 1e-6
_CLUSTER_TOL = 1e-4


class DenseGraph:
    """Explicit symmetric 0/1 adjacency matrix with loop bookkeeping, and the
    orbits of an automorphism sigma that the dense eigensolver splits the
    matrix by.

    ``orbits`` is an (M, r) integer array of distinct vertices, r >= 1:
    sigma moves each row one place to the left, orbits[i, s] to
    orbits[i, (s + 1) % r], and fixes every vertex in no row.  ``fixed``
    lists those vertices in ascending order.  None means no orbits: every
    vertex is fixed, and the eigensolver solves the whole matrix.
    """

    def __init__(self, adjacency: np.ndarray, orbits: np.ndarray | None = None):
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
        orbits = np.empty((0, 1), dtype=np.intp) if orbits is None else np.asarray(orbits)
        if orbits.ndim != 2 or orbits.shape[1] < 1 or orbits.dtype.kind not in "iu" \
                or not ((0 <= orbits) & (orbits < q)).all():
            raise BadInput(f"orbits must be an (M, r) array of vertex indices below {q}, r >= 1")
        if len(np.unique(orbits)) != orbits.size:
            raise BadInput("orbits must be disjoint")
        sigma = np.arange(q)
        sigma[orbits] = np.roll(orbits, -1, axis=1)
        if not np.array_equal(adjacency.take(sigma, axis=0).take(sigma, axis=1), adjacency):
            raise BadInput("orbits must be those of an automorphism of the graph")
        self.adjacency = adjacency
        self.orbits = orbits
        self.fixed = np.setdiff1d(np.arange(q), orbits)
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

    The automorphism is x -> w^k x, w the generator: its orbits are the
    cosets w^j R_k, j < k, as the rows of exp_table read k apart, and a
    rotation multiplies by w^k in R_k, which every one of the four edge rules
    respects.
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
    return DenseGraph(adj, np.asarray(fld.exp_table).reshape(-1, g.k).T)


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
    coset accounting for n of them.  A coset's sum is a Gauss period
    sum_t N(t) zeta_p^t over the counts N(t) of its traces; since
    1, zeta_p, ..., zeta_p^(p-2) are a basis of Q(zeta_p), it is an integer
    exactly when N(1) = ... = N(p-1), and then equals N(0) - N(1).  Counts
    that differ raise NonIntegral with their spread max - min as residual.
    """
    if g.variant is not Variant.GP:
        raise BadInput("char_sum_spectrum expects the GP variant")
    q = g.q
    if q > char_cap:
        raise CapExceeded(f"q = {q} exceeds the character cap {char_cap}")
    if (q - 1) % g.k != 0:
        raise BadK(f"k = {g.k} does not divide q - 1 = {q - 1}")
    n = (q - 1) // g.k

    pairs = [(n, 1)]
    for counts in _coset_trace_counts(make_field(g.p, g.m), g.k):
        spread = max(counts[1:]) - min(counts[1:])
        if spread:
            raise NonIntegral(spread)
        pairs.append((counts[0] - counts[1], n))
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


def _jacobi_eigenvalues(a: np.ndarray, max_sweeps: int = _JACOBI_MAX_SWEEPS) -> np.ndarray:
    """Jacobi in round-robin order: each round rotates away its disjoint
    off-diagonal pairs at once, until the off-diagonal Frobenius norm drops
    below _JACOBI_OFF_TOL at the start of a sweep."""
    import numpy as np

    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    if n <= 1:
        return np.diag(a).copy()
    off_mask = ~np.eye(n, dtype=bool)
    rounds = _round_robin(n)
    for _ in range(max_sweeps):
        # summed from the off-diagonal entries themselves: the difference
        # of two large sums would bottom out at cancellation noise
        off = math.sqrt(float((a[off_mask] ** 2).sum()))
        if off < _JACOBI_OFF_TOL:
            return np.sort(np.diag(a))
        for i, j in rounds:
            keep = np.abs(a[i, j]) >= _JACOBI_OFF_TOL / (4 * n * n)
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
    auto meaning the Jacobi for graphs of up to JACOBI_MAX_N vertices.

    The engine solves blocks of A cut out by sigma, an automorphism checked
    on the matrix when the DenseGraph was made.  With the r columns of the
    orbits and x0 = orbits[x, 0], A[orbits[x, t], orbits[y, t + s]] =
    c[x, y, s] = A[x0, orbits[y, s]] for every t, and a fixed vertex f sees
    A[orbits[x, t], f] = A[x0, f]; so A is block-circulant, and its spectrum
    is exactly the union of those of the Hermitian blocks
    B_j = sum_s c[:, :, s] e^(-2 pi i js/r), the FFT of c along s, where
    - B_0, on the orbit sums, is bordered by sqrt(r) A[x0, F] and A[F, F]
      for the fixed vertices F;
    - B_(r/2), for even r, is real;
    - for 0 < j < r/2, the real [[X, -Y], [Y, X]] of B_j = X + iY has the
      spectrum of B_j and of B_(r-j), its conjugate.
    r = 2 gives the blocks A_PP +- A_P,sigma(P) of an involution; r = 1, or
    no orbits, gives the whole matrix.  LAPACK solves the pair blocks in one
    batched call; the Jacobi takes one block at a time.
    """
    import numpy as np

    if engine == "auto":
        engine = "jacobi" if d.q <= JACOBI_MAX_N else "lapack"
    if engine not in ("jacobi", "lapack"):
        raise BadInput(f"unknown engine {engine!r}")
    a, orbits, fixed = d.adjacency, d.orbits, d.fixed
    r = orbits.shape[1]
    reps = orbits[:, 0]
    b = np.fft.fft(a[reps][:, orbits], axis=2)
    border = math.sqrt(r) * a[np.ix_(reps, fixed)]
    blocks = [np.block([[b[:, :, 0].real, border], [border.T, a[np.ix_(fixed, fixed)]]])]
    if r % 2 == 0:
        blocks.append(b[:, :, r // 2].real)
    half = np.moveaxis(b[:, :, 1:(r + 1) // 2], 2, 0)
    pairs = np.block([[half.real, -half.imag], [half.imag, half.real]])
    if engine == "jacobi":
        values = [_jacobi_eigenvalues(block) for block in blocks + list(pairs)]
    else:
        values = [np.linalg.eigvalsh(block) for block in blocks] + [np.linalg.eigvalsh(pairs).ravel()]
    return np.sort(np.concatenate(values))


def dense_spectrum(d: DenseGraph, engine: str = "auto") -> Spectrum:
    """Integer spectrum of a regular DenseGraph via the dense eigensolver.

    Eigenvalues are clustered at tolerance 1e-4 and each cluster must sit
    within 1e-6 of an integer; callers wanting the raw real values use
    ``dense_eigenvalues`` directly.
    """
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
    oracles run under char_cap.

    Both read the same trace counts, and the exact character sums admit only
    counts with N(1) = ... = N(p-1), so w = n - N(0) = (p-1)*N(1) and the map
    gives N(0) - N(1) by algebra: the check is an identity.  It stays because
    the benchmark's oracle-verify workload calls it."""
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
