"""Independent brute-force verification paths.

Nothing in this module knows about quadratic-form representations: graphs
are gathered digit by digit from R_k or its complement in F_q*, in an explicit
field model, eigenvalues come from additive character sums or a dense
symmetric eigensolver, and code weights, a weight -> frequency mapping, from
trace evaluations.  Agreement of these routes with the closed formulas is the
central anti-regression property of the repository.

The dense eigensolver is hybrid: a hand-rolled Jacobi for graphs up to
JACOBI_MAX_N vertices (an easy correctness argument and a second numeric
route that never calls LAPACK), numpy.linalg.eigvalsh above.  The Jacobi
sweeps in round-robin (Brent-Luk) order: each sweep is n-1 rounds (n rounded
up to even) of n/2 disjoint index pairs, and one round rotates all of its
pairs at once, in every block of a stack, with vectorized updates.

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
        counts = np.bincount(orbits.ravel().astype(np.intp), minlength=q)
        if counts.max(initial=0) > 1:
            raise BadInput("orbits must be disjoint")
        sigma = np.arange(q)
        sigma[orbits] = np.roll(orbits, -1, axis=1)
        if not np.array_equal(adjacency.take(sigma, axis=0).take(sigma, axis=1), adjacency):
            raise BadInput("orbits must be those of an automorphism of the graph")
        self.adjacency = adjacency
        self.orbits = orbits
        self.fixed = np.flatnonzero(counts == 0)
        self.q = q
        self.loop_count = int(np.trace(adjacency))

    def row_sums(self) -> np.ndarray:
        return self.adjacency.sum(axis=1, dtype="int64")

    def degree(self) -> int:
        sums = self.row_sums()
        if sums.min() != sums.max():
            raise BadInput("graph is not regular")
        return int(sums[0])


def _cayley_adjacency(in_r: np.ndarray, p: int, m: int, sign: int) -> np.ndarray:
    """adj[v, w] = in_r[code of w + sign*v] in F_{p^m}, sign = +-1, as uint8.

    Addition is digitwise mod p, so block (a, b) of the matrix over digits
    0..i of v and w, a and b their digit i, is the matrix over digits 0..i-1
    with the code's digit i fixed to (b + sign*a) mod p: no q x q index array.
    """
    import numpy as np

    digits = np.arange(p)
    step = (digits[None, :] + sign * digits[:, None]) % p
    adj = in_r.reshape(-1, 1, 1)
    for i in range(m):
        size = p ** i
        adj = adj.reshape(-1, p, size, size)[:, step].transpose(0, 1, 3, 2, 4).reshape(-1, p * size, p * size)
    return adj.reshape(p ** m, p ** m)


def build_graph(g: GraphSpec, dense_cap: int = DENSE_CAP) -> DenseGraph:
    """Materialize the Cayley graph digit by digit: edge v~w iff w-v in S
    (GP, complement) or v+w in S (sum graphs), S = R_k, or S-bar = F_q* - R_k
    for the complements; the sum complement has a loop at v iff 2v in S-bar.

    The automorphism is x -> w^k x, w the generator: its orbits are the
    cosets w^j R_k, j < k, the field's exp_table read k apart (a view of the
    read-only table, not a copy), and a rotation multiplies by w^k in R_k,
    which maps R_k and S-bar onto themselves: every edge rule respects it.
    """
    import numpy as np

    fld = make_field(g.p, g.m)
    q = fld.q
    if q > dense_cap:
        raise CapExceeded(f"q = {q} exceeds the dense cap {dense_cap}")
    in_s = np.zeros(q, dtype=np.uint8)
    in_s[list(kth_power_residues(fld, g.k))] = 1
    if g.variant in (Variant.GP_COMPLEMENT, Variant.GPSUM_COMPLEMENT):
        in_s[1:] ^= 1                   # code 0 is the field's zero, in neither set
    summing = g.variant in (Variant.GPSUM, Variant.GPSUM_COMPLEMENT)
    adj = _cayley_adjacency(in_s, g.p, g.m, 1 if summing else -1)
    return DenseGraph(adj, fld.exp_table.reshape(-1, g.k).T)


# ---------------------------------------------------------------------------
# Character sums
# ---------------------------------------------------------------------------

def _oracle_field(k: int, p: int, m: int, char_cap: int) -> tuple[FieldSpec, int]:
    """(F_{p^m}, q), checking p, m, k >= 1 and q <= char_cap before any arithmetic on them."""
    fld = make_field(p, m)
    if k < 1:
        raise BadInput(f"k = {k} must be positive")
    if fld.q > char_cap:
        raise CapExceeded(f"q = {fld.q} exceeds the character cap {char_cap}")
    return fld, fld.q


def _coset_trace_counts(fld: FieldSpec, k: int) -> list[list[int]]:
    """For each j < k, how often each t in [0, p) is Tr(w^(j + k*i)) over
    i < (q-1)/k, w the generator: the trace tallies of the coset w^j R_k."""
    import numpy as np

    traces = fld.trace_table[fld.exp_table]
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
    fld, q = _oracle_field(g.k, g.p, g.m, char_cap)
    if (q - 1) % g.k != 0:
        raise BadK(f"k = {g.k} does not divide q - 1 = {q - 1}")
    n = (q - 1) // g.k

    pairs = [(n, 1)]
    for counts in _coset_trace_counts(fld, g.k):
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


def _jacobi_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Jacobi in round-robin order: each round rotates away its disjoint
    off-diagonal pairs at once, until the off-diagonal Frobenius norm drops
    below _JACOBI_OFF_TOL at the start of a sweep.  A stack (N, n, n) gives
    (N, n): each round rotates the pairs of every block, and a block whose
    norm has dropped below the tolerance gets no further rotation, so its
    eigenvalues are bitwise those of a call on that block alone."""
    import numpy as np

    a = np.array(a, dtype=np.float64)
    stack = a if a.ndim == 3 else a[None]
    n = stack.shape[-1]
    off_mask = ~np.eye(n, dtype=bool)
    active = np.ones(len(stack), dtype=bool)
    rounds = _round_robin(n)
    for _ in range(_JACOBI_MAX_SWEEPS):
        # summed from the off-diagonal entries themselves: the difference
        # of two large sums would bottom out at cancellation noise
        off = np.sqrt((stack[:, off_mask] ** 2).sum(axis=1))
        active &= ~(off < _JACOBI_OFF_TOL)   # a NaN norm never freezes its block
        if not active.any():
            return np.sort(np.diagonal(stack, axis1=1, axis2=2), axis=1).reshape(a.shape[:-1])
        for i, j in rounds:
            # disjoint pairs: a rotation touches only rows and columns i, j of its block
            block, pair = np.nonzero(active[:, None] & (abs(stack[:, i, j]) >= _JACOBI_OFF_TOL / (4 * n * n)))
            if not len(block):
                continue
            i, j = i[pair], j[pair]
            tau = (stack[block, j, j] - stack[block, i, i]) / (2.0 * stack[block, i, j])
            t = np.where(tau == 0, 1.0, np.sign(tau) / (np.abs(tau) + np.hypot(1.0, tau)))
            c = (1.0 / np.hypot(1.0, t))[:, None]
            s = t[:, None] * c
            rows_i, rows_j = stack[block, i, :], stack[block, j, :]
            stack[block, i, :] = c * rows_i - s * rows_j
            stack[block, j, :] = s * rows_i + c * rows_j
            cols_i, cols_j = stack[block, :, i], stack[block, :, j]
            stack[block, :, i] = cols_i * c - cols_j * s
            stack[block, :, j] = cols_i * s + cols_j * c
    raise NoConvergence(_JACOBI_MAX_SWEEPS)


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
    no orbits, gives the whole matrix.  Either engine takes each block size
    in one call: B_0, B_(r/2) and the stack of pair blocks, at most three.
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
    solve = _jacobi_eigenvalues if engine == "jacobi" else np.linalg.eigvalsh
    values = [solve(block) for block in blocks] + [solve(pairs).ravel()]
    return np.sort(np.concatenate(values))


def dense_spectrum(d: DenseGraph, engine: str = "auto") -> Spectrum:
    """Integer spectrum of a regular DenseGraph via the dense eigensolver.

    Each eigenvalue is rounded to its nearest integer, and the largest
    distance to it must stay below 1e-6 (NonIntegral carries it otherwise,
    and a NaN never passes); callers wanting the raw real values use
    ``dense_eigenvalues`` directly.
    """
    import numpy as np

    degree = d.degree()
    values = dense_eigenvalues(d, engine=engine)
    targets = np.rint(values)
    residual = float(np.abs(values - targets).max())
    if not residual < _ROUND_TOL:
        raise NonIntegral(residual)
    eigenvalues, counts = np.unique(targets, return_counts=True)
    pairs = [(int(v), int(c)) for v, c in zip(eigenvalues, counts)]
    return Spectrum.from_pairs(pairs, degree, d.q, loops=d.loop_count)


# ---------------------------------------------------------------------------
# Irreducible cyclic code weights
# ---------------------------------------------------------------------------

def code_weight_distribution(k: int, p: int, m: int,
                             char_cap: int = CHAR_CAP) -> dict[int, int]:
    """Weights of the q codewords (Tr(gamma w^(k i)))_{i < n}, w primitive,
    as a weight -> frequency mapping in ascending weight order.

    Needs k | (q-1)/(p-1) so the code length is n = (q-1)/k.  Codewords of
    the gamma = w^j with equal j mod k are cyclic shifts of each other, so
    one weight per coset is evaluated and tallied with frequency n; the
    zero codeword contributes weight 0 once, and the frequencies sum to
    1 + k*n = q.
    """
    fld, q = _oracle_field(k, p, m, char_cap)
    if ((q - 1) // (p - 1)) % k != 0:
        raise OutOfScope(f"{k} does not divide (q-1)/(p-1) = {(q - 1) // (p - 1)}")
    n = (q - 1) // k
    tally = {0: 1}
    for counts in _coset_trace_counts(fld, k):
        tally[n - counts[0]] = tally.get(n - counts[0], 0) + n
    return dict(sorted(tally.items()))


def weight_eigenvalue_check(k: int, p: int, m: int, char_cap: int = CHAR_CAP) -> bool:
    """True iff mapping weights through  lambda = n - p*w/(p-1)  reproduces
    the character-sum spectrum exactly, frequencies as multiplicities; both
    oracles run under char_cap.

    Both read the same trace counts, and the exact character sums admit only
    counts with N(1) = ... = N(p-1), so w = n - N(0) = (p-1)*N(1) and the map
    gives N(0) - N(1) by algebra: the check is an identity.  It stays because
    the benchmark's oracle-verify workload calls it."""
    dist = code_weight_distribution(k, p, m, char_cap=char_cap)
    n = (p ** m - 1) // k
    # lambda falls strictly as w rises, so ascending weights give the
    # descending eigenvalues of Spectrum.entries
    mapped = []
    for w, freq in dist.items():
        lam, rem = divmod(n * (p - 1) - p * w, p - 1)
        if rem:
            return False
        mapped.append((lam, freq))
    spectrum = char_sum_spectrum(GraphSpec(k, p, m), char_cap=char_cap)
    return tuple(mapped) == spectrum.entries
