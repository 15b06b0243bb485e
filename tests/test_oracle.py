"""Brute-force oracles: graph construction, both eigensolvers, code weights."""
import itertools

import numpy as np
import pytest

from conftest import in_scope_instances
from gpspec.errors import BadInput, BadK, CapExceeded, GPSpecError, NonIntegral, OutOfScope
from gpspec.ff import kth_power_residues, make_field
from gpspec.oracle import (DENSE_CAP, JACOBI_MAX_N, DenseGraph, _cayley_adjacency, _round_robin, build_graph,
                           char_sum_spectrum, code_weight_distribution, dense_eigenvalues,
                           dense_spectrum, weight_eigenvalue_check)
from gpspec.spectra import GraphSpec, Spectrum, Variant, complement_spectrum, gp_spectrum, gpsum_spectrum
from referees import char_sum_eigenvalue, dense_graph_checks


class TestBuildGraph:
    def test_k1_gives_complete_graph(self):
        d = build_graph(GraphSpec(1, 5, 1))
        assert d.q == 5 and d.loop_count == 0
        assert d.degree() == 4
        assert np.array_equal(d.adjacency, 1 - np.eye(5, dtype=np.uint8))

    def test_gp_3_16_regular_no_loops(self):
        d = build_graph(GraphSpec(3, 2, 4))
        assert d.degree() == 5 and d.loop_count == 0

    def test_gpsum_3_7_has_loops(self):
        d = build_graph(GraphSpec(3, 7, 1, Variant.GPSUM))
        assert d.degree() == 2
        assert d.loop_count == 2  # |R_3| loops for odd q

    def test_row_sums_and_diagonal_in_scope(self):
        for (k, p, m) in in_scope_instances(700):
            d = build_graph(GraphSpec(k, p, m))
            q = p ** m
            sums = d.row_sums()
            assert sums.min() == sums.max() == (q - 1) // k
            assert d.loop_count == 0
            ds = build_graph(GraphSpec(k, p, m, Variant.GPSUM))
            assert ds.degree() == (q - 1) // k
            assert ds.loop_count == (0 if q % 2 == 0 else (q - 1) // k)

    def test_edges_match_residue_membership(self):
        g = GraphSpec(3, 7, 1)
        fld = make_field(7, 1)
        residues = kth_power_residues(fld, 3)
        d = build_graph(g)
        for v in range(7):
            for w in range(7):
                assert d.adjacency[v, w] == ((w - v) % 7 in residues)

    def test_complement_flips_off_diagonal(self):
        """The difference graph on S-bar = F_q* - R_k is 1 - I - A_GP, on every
        in-scope graph with q <= DENSE_CAP."""
        for (k, p, m) in in_scope_instances(DENSE_CAP):
            gp = build_graph(GraphSpec(k, p, m))
            comp = build_graph(GraphSpec(k, p, m, Variant.GP_COMPLEMENT))
            expected = 1 - np.eye(p ** m, dtype=np.int16) - gp.adjacency
            assert comp.adjacency.dtype == np.uint8 and np.array_equal(comp.adjacency, expected), (k, p, m)

    @pytest.mark.parametrize("k,p,m", [(3, 7, 1), (3, 2, 4)])
    def test_sum_complement_is_sum_graph_on_s_bar(self, k, p, m):
        """adj[v, w] = [v + w in S-bar], S-bar = F_q* - R_k, entry by entry
        against FieldSpec.add: at odd q a loop wherever 2v lies in S-bar, and
        no edge v ~ -v."""
        fld = make_field(p, m)
        residues = kth_power_residues(fld, k)
        comp = build_graph(GraphSpec(k, p, m, Variant.GPSUM_COMPLEMENT))
        for v in range(fld.q):
            sums = [fld.add(v, w) for w in range(fld.q)]
            assert comp.adjacency[v].tolist() == [int(x != 0 and x not in residues) for x in sums], v

    def test_complement_spectrum_agrees_with_dense(self):
        g = GraphSpec(3, 2, 6, Variant.GP_COMPLEMENT)
        assert dense_spectrum(build_graph(g)) == complement_spectrum(gp_spectrum(GraphSpec(3, 2, 6)))

    def test_cayley_adjacency_matches_field_arithmetic(self):
        """The digitwise gather of a random 0/1 vector against FieldSpec.add and
        FieldSpec.neg, entry by entry, for every field of an in-scope graph with q <= 125."""
        rng = np.random.default_rng(125)
        for p, m in sorted({(p, m) for _, p, m in in_scope_instances(125)}):
            fld = make_field(p, m)
            in_r = rng.integers(0, 2, fld.q, dtype=np.uint8)
            diff, total = _cayley_adjacency(in_r, p, m, -1), _cayley_adjacency(in_r, p, m, 1)
            assert diff.dtype == total.dtype == np.uint8 and diff.shape == total.shape == (fld.q, fld.q)
            for v in range(fld.q):
                assert diff[v].tolist() == [in_r[fld.add(w, fld.neg(v))] for w in range(fld.q)], (p, m, v)
                assert total[v].tolist() == [in_r[fld.add(w, v)] for w in range(fld.q)], (p, m, v)

    def test_peak_memory_below_four_bytes_per_entry(self):
        """No q x q index array: the uint8 matrix, its checks and the gather's
        last step stay below 4 q^2 bytes (an int32 table of codes alone is 4 q^2).
        A first build makes the field and numpy's lazy imports, which are not counted."""
        import tracemalloc

        g = GraphSpec(3, 2, 10)
        build_graph(g)
        tracemalloc.start()
        try:
            build_graph(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * g.q ** 2, peak / g.q ** 2

    @pytest.mark.parametrize("k,p,m", [(3, 2, 4), (3, 5, 2), (4, 3, 4), (4, 7, 2), (3, 2, 10), (4, 3, 6)])
    def test_orbits(self, k, p, m):
        """The cosets w^j R_k, each rotated by x -> w^k x; DenseGraph checked it on the matrix."""
        fld = make_field(p, m)
        h = fld.exp_table[k]
        for variant in Variant:
            d = build_graph(GraphSpec(k, p, m, variant))
            assert d.orbits.shape == (k, (fld.q - 1) // k)
            for j, row in enumerate(d.orbits.tolist()):
                assert row[0] == fld.exp_table[j]
                assert row[1:] == [fld.mul(h, x) for x in row[:-1]]
            assert d.fixed.tolist() == [0]

    def test_cap(self):
        with pytest.raises(CapExceeded):
            build_graph(GraphSpec(3, 2, 14), dense_cap=4096)

    def test_rejects_asymmetric_connection_set(self):
        # R_2 mod 7 is not symmetric: the graph would be directed
        with pytest.raises(BadInput):
            build_graph(GraphSpec(2, 7, 1))


class TestCharSumSpectrum:
    def test_adjudicates_gp_3_16(self):
        s = char_sum_spectrum(GraphSpec(3, 2, 4))
        assert s.entries == ((5, 1), (1, 10), (-3, 5))

    def test_k5(self):
        s = char_sum_spectrum(GraphSpec(1, 5, 1))
        assert s.entries == ((4, 1), (-1, 4))

    def test_matches_closed_form_gp_3_343(self):
        assert char_sum_spectrum(GraphSpec(3, 7, 3)) == gp_spectrum(GraphSpec(3, 7, 3))

    def test_rejects_bad_k(self):
        with pytest.raises(BadK):
            char_sum_spectrum(GraphSpec(3, 2, 5))

    def test_rejects_over_cap(self):
        with pytest.raises(CapExceeded):
            char_sum_spectrum(GraphSpec(3, 7, 3), char_cap=100)

    def test_rejects_non_gp_variant(self):
        with pytest.raises(BadInput):
            char_sum_spectrum(GraphSpec(3, 7, 3, Variant.GPSUM))

    def test_nonintegral_sums_detected(self):
        # the quadratic-residue graph on 5 vertices is C_5: golden-ratio
        # eigenvalues, so the rounding check must fire
        with pytest.raises(NonIntegral):
            char_sum_spectrum(GraphSpec(2, 5, 1))

    @pytest.mark.parametrize("k,p,m", [(3, 2, 4), (3, 5, 2), (3, 7, 3), (4, 3, 4), (4, 5, 4)])
    def test_coset_collapse_matches_per_character_sums(self, k, p, m):
        """Full per-gamma enumeration (no coset shortcut) as a referee."""
        g = GraphSpec(k, p, m)
        q = p ** m
        by_value = {}
        for gamma in range(q):
            lam = char_sum_eigenvalue(g, gamma)
            assert abs(lam.imag) < 1e-6
            val = round(lam.real)
            assert abs(lam.real - val) < 1e-6
            by_value[val] = by_value.get(val, 0) + 1
        expected = tuple(sorted(by_value.items(), key=lambda t: -t[0]))
        assert char_sum_spectrum(g).entries == expected


class TestDenseSpectrum:
    def test_k4_complete_graph(self):
        d = DenseGraph(1 - np.eye(4, dtype=np.uint8))
        assert dense_spectrum(d).entries == ((3, 1), (-1, 3))

    @pytest.mark.parametrize("offsets", [(-9e-7, -9e-7, 9e-7, 9e-7), (9e-7, 9e-7, 9e-7, -9e-7)])
    def test_rounds_within_tolerance(self, monkeypatch, offsets):
        from gpspec import oracle

        values = np.array([-1.0, -1.0, -1.0, 3.0]) + np.array(offsets)
        monkeypatch.setattr(oracle, "dense_eigenvalues", lambda d, engine="auto": values)
        assert dense_spectrum(DenseGraph(1 - np.eye(4, dtype=np.uint8))).entries == ((3, 1), (-1, 3))

    @pytest.mark.parametrize("offset", [2e-6, np.nan])
    def test_rejects_past_tolerance(self, monkeypatch, offset):
        from gpspec import oracle

        values = np.array([-1.0, -1.0, -1.0 + offset, 3.0])
        monkeypatch.setattr(oracle, "dense_eigenvalues", lambda d, engine="auto": values)
        with pytest.raises(NonIntegral) as err:
            dense_spectrum(DenseGraph(1 - np.eye(4, dtype=np.uint8)))
        assert err.value.residual == pytest.approx(offset, nan_ok=True)

    @pytest.mark.parametrize("a,expected", [(np.zeros((0, 0)), []), (np.array([[2.5]]), [2.5])])
    def test_jacobi_without_off_diagonal_entries(self, a, expected):
        from gpspec.oracle import _jacobi_eigenvalues

        assert _jacobi_eigenvalues(a).tolist() == expected

    def test_jacobi_agrees_with_lapack(self):
        """Every in-scope graph small enough for the Jacobi under engine="auto"."""
        for (k, p, m) in in_scope_instances(JACOBI_MAX_N):
            for variant in (Variant.GP, Variant.GPSUM, Variant.GP_COMPLEMENT):
                d = build_graph(GraphSpec(k, p, m, variant))
                jac = dense_eigenvalues(d, engine="jacobi")
                lap = dense_eigenvalues(d, engine="lapack")
                assert np.allclose(jac, lap, rtol=0, atol=1e-8), (k, p, m, variant)
                assert dense_spectrum(d, engine="jacobi") == dense_spectrum(d, engine="lapack")

    @pytest.mark.parametrize("n", range(1, 131))
    def test_round_robin_covers_every_pair_once(self, n):
        seen = []
        for i, j in _round_robin(n):
            assert len(set(i.tolist()) | set(j.tolist())) == 2 * len(i)   # disjoint pairs
            seen += zip(i.tolist(), j.tolist())
        assert len(_round_robin(n)) == n - 1 + n % 2
        assert sorted(seen) == list(itertools.combinations(range(n), 2))

    def test_gp_3_16_both_engines(self):
        d = build_graph(GraphSpec(3, 2, 4))
        expected = ((5, 1), (1, 10), (-3, 5))
        assert dense_spectrum(d, engine="jacobi").entries == expected
        assert dense_spectrum(d, engine="lapack").entries == expected

    def test_gpsum_3_25(self):
        d = build_graph(GraphSpec(3, 5, 2, Variant.GPSUM))
        s = dense_spectrum(d)
        assert s == gpsum_spectrum(GraphSpec(3, 5, 2, Variant.GPSUM))
        assert s.loops == 8
        assert sum(v * e for v, e in s.entries) == 8

    def test_rejects_irregular(self):
        adj = np.zeros((3, 3), dtype=np.uint8)
        adj[0, 1] = adj[1, 0] = 1
        with pytest.raises(BadInput):
            dense_spectrum(DenseGraph(adj))

    def test_nonintegral_spectrum_detected(self):
        # C_5 has eigenvalues 2, 2cos(2pi/5), ... : irrational
        adj = np.zeros((5, 5), dtype=np.uint8)
        for i in range(5):
            adj[i, (i + 1) % 5] = adj[(i + 1) % 5, i] = 1
        with pytest.raises(NonIntegral):
            dense_spectrum(DenseGraph(adj))
        vals = dense_eigenvalues(DenseGraph(adj))  # raw values remain available
        assert abs(max(vals) - 2) < 1e-9

    def test_dense_graph_validation(self):
        with pytest.raises(BadInput):
            DenseGraph(np.array([[0, 1], [0, 0]]))
        with pytest.raises(BadInput):
            DenseGraph(np.array([[2, 0], [0, 2]]))
        with pytest.raises(BadInput, match="adjacency must be square"):
            DenseGraph(np.zeros((2, 3), dtype=np.uint8))

    @pytest.mark.parametrize("entry", [257, 1.5, -255])
    def test_dense_graph_checks_entries_before_any_cast(self, entry):
        # each of these casts to 1 as uint8, which would pass for K_2
        with pytest.raises(BadInput, match="0/1"):
            DenseGraph(np.array([[0, entry], [entry, 0]]))

    def test_dense_graph_checks_match_the_whole_matrix_referee(self):
        """Every in-scope graph with q <= 343, in each variant, with its
        orbits, none or two that share a vertex, as built, in other dtypes
        and perturbed: the
        constructor (and ``degree``) accepts exactly what the whole-matrix
        referee accepts, and raises the same message otherwise."""
        def verdict(check, adjacency, orbits):
            try:
                adjacency, fixed, degree = check(adjacency, orbits)
            except BadInput as err:
                return str(err)
            return adjacency.dtype.name, adjacency.tolist(), fixed.tolist(), degree

        def constructor(adjacency, orbits):
            d = DenseGraph(adjacency, orbits)
            try:
                return d.adjacency, d.fixed, d.degree()
            except BadInput:
                return d.adjacency, d.fixed, None

        def toggle(rows, cols):
            out = a.copy()
            out[rows, cols] ^= 1
            return out

        rng = np.random.default_rng(30)
        seen = set()
        for k, p, m in in_scope_instances(343):
            for variant in Variant:
                d = build_graph(GraphSpec(k, p, m, variant))
                a, orbits, q = d.adjacency, d.orbits, d.q
                shared = orbits.copy()
                shared[0, 0] = shared[1, 0]
                i, j = rng.choice(q, 2, replace=False)
                v = orbits[rng.integers(len(orbits)), 0]
                cols = rng.permutation(q)
                col_b = next(c for c in cols if a[v, c] != a[v, cols[0]])
                swap = [cols[0], col_b]
                swapped = a.copy()
                swapped[v, swap] = swapped[v, swap[::-1]]
                mirrored = swapped.copy()
                mirrored[swap, v] = mirrored[swap[::-1], v]
                f, x, y = d.fixed[0], orbits[0], np.roll(orbits[1], -1)
                two, wide = a.copy(), a.astype(np.int64)
                two[i, j] = two[j, i] = 2
                wide[i, j] = wide[j, i] = 257
                cases = {"as built": a, "int64": a.astype(np.int64), "bool": a.astype(bool),
                         "float": a.astype(float), "flipped entry": toggle(i, j),
                         "flipped pair": toggle([i, j], [j, i]), "swapped in a row": swapped,
                         "swapped in a row and column": mirrored,
                         # entries that a single compare of the orbit frame reads
                         "flipped last-to-first entry": toggle(x[-1], orbits[1, 0]),
                         "flipped fixed-to-orbit entry": toggle(f, x[1]),
                         "flipped orbit-to-fixed entry": toggle(x[1], f),
                         "toggled border one way": toggle(x, f),
                         "toggled border": toggle(np.append(x, [f] * len(x)), np.append([f] * len(x), x)),
                         "toggled diagonal one way": toggle(x, y),
                         "toggled diagonal": toggle(np.append(x, y), np.append(y, x)),
                         "2": two, "257": wide}
                for name, adjacency in cases.items():
                    for orbit_rows in (orbits, None, shared):
                        expected = verdict(dense_graph_checks, adjacency, orbit_rows)
                        assert verdict(constructor, adjacency, orbit_rows) == expected, \
                            (k, p, m, variant, name, orbit_rows is None)
                        seen.add(expected if isinstance(expected, str) else expected[-1] is None)
        assert seen == {False, True, "adjacency entries must be 0/1", "adjacency must be symmetric",
                        "orbits must be disjoint", "orbits must be those of an automorphism of the graph"}

    def test_dense_graph_checks_the_orbits(self):
        path = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])      # 0 - 1 - 2
        d = DenseGraph(path, np.array([[0, 2]]))
        assert d.orbits.tolist() == [[0, 2]] and d.fixed.tolist() == [1]
        assert DenseGraph(path).fixed.tolist() == [0, 1, 2]
        assert DenseGraph(1 - np.eye(3, dtype=np.uint8), np.array([[0, 1, 2]])).fixed.tolist() == []
        with pytest.raises(BadInput, match="automorphism"):
            DenseGraph(path, np.array([[0, 1]]))
        with pytest.raises(BadInput, match="disjoint"):
            DenseGraph(path, np.array([[0, 1], [1, 2]]))
        for bad in ([[0, 3]], [[-1, 1]], [[0.0, 2.0]], [0, 2], np.zeros((1, 0), dtype=int)):
            with pytest.raises(BadInput, match="vertex indices"):
                DenseGraph(path, np.array(bad))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_fixed_vertices_are_those_in_no_orbit(self, dtype):
        """Random disjoint rows on the empty graph, which every permutation
        preserves, against the set difference; a shared vertex is rejected."""
        rng = np.random.default_rng(25)
        for q, M, r in [(1, 0, 1), (9, 0, 3), (9, 9, 1), (9, 4, 1), (12, 3, 4), (30, 7, 2), (40, 5, 5)]:
            empty = np.zeros((q, q), dtype=np.uint8)
            for _ in range(5):
                orbits = rng.permutation(q)[:M * r].reshape(M, r).astype(dtype)
                d = DenseGraph(empty, orbits)
                assert np.array_equal(d.fixed, np.setdiff1d(np.arange(q), orbits)), (q, M, r)
                if M * r >= 2:
                    shared = orbits.copy()
                    shared.flat[-1] = shared.flat[0]
                    with pytest.raises(BadInput, match="disjoint"):
                        DenseGraph(empty, shared)

    def test_rejects_unknown_engine(self):
        with pytest.raises(BadInput, match="unknown engine"):
            dense_eigenvalues(DenseGraph(1 - np.eye(4, dtype=np.uint8)), engine="qr")

    @pytest.mark.parametrize("engine", ["jacobi", "lapack"])
    def test_odd_rotation_without_fixed_point(self, engine):
        """C_5 rotated by x -> x + 1: one orbit of odd length, blocks j = 0, {1, 4}, {2, 3}."""
        adj = np.zeros((5, 5), dtype=np.uint8)
        for i in range(5):
            adj[i, (i + 1) % 5] = adj[(i + 1) % 5, i] = 1
        d = DenseGraph(adj, np.array([[0, 1, 2, 3, 4]]))
        expected = np.sort([2 * np.cos(2 * np.pi * j / 5) for j in range(5)])
        assert np.allclose(dense_eigenvalues(d, engine=engine), expected, rtol=0, atol=1e-12)
        with pytest.raises(NonIntegral):
            dense_spectrum(d, engine=engine)

    @pytest.mark.parametrize("k,p,m", in_scope_instances(400) + [(3, 2, 10), (4, 3, 6)])
    def test_split_matches_full_solve(self, k, p, m):
        """The blocks of x -> w^k x, and of the involution x -> x + 1 (p = 2)
        or x -> -x (odd p) as orbits of length 2, against the whole matrix
        (no orbits), with both engines below JACOBI_MAX_N."""
        fld = make_field(p, m)
        involution = [fld.add(x, 1) if p == 2 else fld.neg(x) for x in range(fld.q)]
        pairs = np.array([(x, y) for x, y in enumerate(involution) if x < y])
        for variant in Variant:
            d = build_graph(GraphSpec(k, p, m, variant))
            whole = DenseGraph(d.adjacency)
            halved = DenseGraph(d.adjacency, pairs)
            for engine in ("jacobi", "lapack") if d.q <= JACOBI_MAX_N else ("auto",):
                expected = dense_eigenvalues(whole, engine=engine)
                for split in (d, halved):
                    assert np.allclose(dense_eigenvalues(split, engine=engine), expected, rtol=0, atol=1e-9), \
                        (k, p, m, variant, engine, split.orbits.shape)

    def test_jacobi_no_convergence_reports_sweeps(self, monkeypatch):
        from gpspec import oracle
        from gpspec.errors import NoConvergence

        monkeypatch.setattr(oracle, "_JACOBI_MAX_SWEEPS", 1)
        adj = build_graph(GraphSpec(3, 2, 4)).adjacency
        with pytest.raises(NoConvergence) as err:
            oracle._jacobi_eigenvalues(adj)
        assert err.value.sweeps == 1

    def test_jacobi_stack_no_convergence_reports_sweeps(self, monkeypatch):
        """A block already diagonal is frozen; the other still raises."""
        from gpspec import oracle
        from gpspec.errors import NoConvergence

        monkeypatch.setattr(oracle, "_JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(NoConvergence) as err:
            oracle._jacobi_eigenvalues(np.stack([np.diag([1.0, 2.0, 3.0]), 1 - np.eye(3)]))
        assert err.value.sweeps == 1

    def test_jacobi_empty_stack(self):
        from gpspec.oracle import _jacobi_eigenvalues

        assert _jacobi_eigenvalues(np.zeros((0, 3, 3))).shape == (0, 3)

    @staticmethod
    def _jacobi_calls(monkeypatch, d):
        """The argument of each _jacobi_eigenvalues call of dense_eigenvalues(d, engine="jacobi")."""
        from gpspec import oracle

        calls, solve = [], oracle._jacobi_eigenvalues
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_jacobi_eigenvalues", lambda a: calls.append(np.array(a)) or solve(a))
            dense_eigenvalues(d, engine="jacobi")
        return calls

    def test_jacobi_one_call_per_block_size(self, monkeypatch):
        assert len(self._jacobi_calls(monkeypatch, build_graph(GraphSpec(3, 2, 6)))) <= 3
        assert len(self._jacobi_calls(monkeypatch, build_graph(GraphSpec(4, 3, 4)))) == 3    # r = 20 is even

    def test_jacobi_stack_equals_each_block_alone(self, monkeypatch):
        """Every in-scope graph small enough for the Jacobi under engine="auto",
        every variant: the frozen batch is bitwise the per-block calls."""
        from gpspec.oracle import _jacobi_eigenvalues

        for (k, p, m) in in_scope_instances(JACOBI_MAX_N):
            for variant in Variant:
                stacks = [a for a in self._jacobi_calls(monkeypatch, build_graph(GraphSpec(k, p, m, variant)))
                          if a.ndim == 3]
                assert len(stacks) == 1 and len(stacks[0]) > 1, (k, p, m, variant)
                alone = np.array([_jacobi_eigenvalues(block) for block in stacks[0]])
                assert np.array_equal(_jacobi_eigenvalues(stacks[0]), alone), (k, p, m, variant)


class TestWeightDistribution:
    def test_gp_3_16(self):
        dist = code_weight_distribution(3, 2, 4)
        assert tuple(dist.items()) == ((0, 1), (2, 10), (4, 5))

    def test_gp_3_343(self):
        dist = code_weight_distribution(3, 7, 3)
        assert tuple(dist.items()) == ((0, 1), (90, 114), (96, 114), (108, 114))

    def test_zero_codeword(self):
        dist = code_weight_distribution(4, 5, 4)
        assert dist[0] == 1

    def test_rejects_out_of_scope(self):
        with pytest.raises(OutOfScope):
            code_weight_distribution(3, 7, 2)

    def test_ascending_weights_count_every_codeword(self):
        for (k, p, m) in in_scope_instances(10 ** 4):
            dist = code_weight_distribution(k, p, m)
            assert list(dist) == sorted(dist), (k, p, m)
            assert sum(dist.values()) == p ** m, (k, p, m)

    def test_rejects_over_cap(self):
        with pytest.raises(CapExceeded):
            code_weight_distribution(3, 7, 3, char_cap=100)

    @pytest.mark.parametrize("k,p,m", [(3, 2, 4), (3, 2, 6), (3, 7, 3), (4, 3, 4)])
    def test_matches_naive_full_enumeration(self, k, p, m):
        """Build all q codewords entry by entry and tally their weights."""
        fld = make_field(p, m)
        q = p ** m
        n = (q - 1) // k
        exp = fld.exp_table
        tally = {}
        for code in range(q):
            w = sum(1 for i in range(n)
                    if fld.trace_table[fld.mul(code, exp[(k * i) % (q - 1)])] != 0)
            tally[w] = tally.get(w, 0) + 1
        assert tuple(code_weight_distribution(k, p, m).items()) == tuple(sorted(tally.items()))


class TestWeightEigenvalueCheck:
    @pytest.mark.parametrize("k,p,m", [(3, 2, 4), (3, 7, 3), (4, 5, 4), (4, 3, 6), (3, 5, 4)])
    def test_examples(self, k, p, m):
        assert weight_eigenvalue_check(k, p, m) is True


ENTRY_POINTS = {
    "char_sum_spectrum": lambda k, p, m: char_sum_spectrum(GraphSpec(k, p, m)),
    "build_graph": lambda k, p, m: build_graph(GraphSpec(k, p, m)),
    "code_weight_distribution": code_weight_distribution,
    "weight_eigenvalue_check": weight_eigenvalue_check,
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("k,p,m,names", [(3, 1, 3, "p = 1"), (0, 7, 3, "k = 0"),
                                         (3, 7, 0, "m = 0"), (3, 7, -1, "m = -1"),
                                         (3, 0, -1, "p = 0")],
                         ids=["p=1", "k=0", "m=0", "m=-1", "p=0,m=-1"])
def test_oracle_entry_points_reject_bad_input(entry, k, p, m, names):
    """p = 1, k = 0, m = 0, m = -1 or p = 0 with m = -1 raise a GPSpecError
    naming the bad value (not ZeroDivisionError, nor a BadK about a float q):
    each entry point checks p and m through make_field, and k, before any
    arithmetic on q, k or p - 1."""
    with pytest.raises(GPSpecError, match=names):
        ENTRY_POINTS[entry](k, p, m)


class TestTripleAgreement:
    @pytest.mark.parametrize("k,p,m", [(k, p, m) for (k, p, m) in in_scope_instances(729)])
    def test_small_instances(self, k, p, m):
        g = GraphSpec(k, p, m)
        closed = gp_spectrum(g)
        assert char_sum_spectrum(g) == closed
        assert dense_spectrum(build_graph(g)) == closed

    @pytest.mark.parametrize("k,p,m", [(k, p, m) for (k, p, m) in in_scope_instances(729)])
    def test_small_sum_graphs(self, k, p, m):
        g = GraphSpec(k, p, m, Variant.GPSUM)
        assert dense_spectrum(build_graph(g)) == gpsum_spectrum(g)

    @pytest.mark.parametrize("k,p,m", [(k, p, m) for (k, p, m) in in_scope_instances(30000)
                                       if p ** m > 729])
    def test_char_agreement_mid_range(self, k, p, m):
        g = GraphSpec(k, p, m)
        assert char_sum_spectrum(g) == gp_spectrum(g)


class TestFullRangeSweeps:
    @pytest.mark.slow
    def test_char_agreement_to_char_cap(self):
        """Run with `pytest -m slow`."""
        for (k, p, m) in in_scope_instances(300_000):
            g = GraphSpec(k, p, m)
            assert char_sum_spectrum(g) == gp_spectrum(g), (k, p, m)

    def test_sum_complement_to_dense_cap(self):
        """The sum graph on S-bar, by LAPACK: at odd q its spectrum is
        {[q-1-n]^1} u {[+-(1+lambda)]^(e/2)} over the non-principal [lambda]^e
        of GP(k, q), with q-1-n loops; at even q, where v + w = w - v, it is
        the complement's.  Either way its energy is the complement's."""
        for (k, p, m) in in_scope_instances(DENSE_CAP):
            q = p ** m
            gp = gp_spectrum(GraphSpec(k, p, m))
            comp = complement_spectrum(gp)
            expected = comp
            if q % 2:
                pairs = [(comp.principal, 1)]
                for lam, e in gp.nonprincipal():
                    pairs += [(1 + lam, e // 2), (-1 - lam, e // 2)]
                expected = Spectrum.from_pairs(pairs, comp.principal, q, loops=comp.principal)
            got = dense_spectrum(build_graph(GraphSpec(k, p, m, Variant.GPSUM_COMPLEMENT)), engine="lapack")
            assert got == expected and got.energy() == comp.energy(), (k, p, m)

    def test_dense_agreement_to_dense_cap(self):
        for (k, p, m) in in_scope_instances(1500):
            gp = gp_spectrum(GraphSpec(k, p, m))
            closed = {Variant.GP: gp, Variant.GPSUM: gpsum_spectrum(GraphSpec(k, p, m, Variant.GPSUM)),
                      Variant.GP_COMPLEMENT: complement_spectrum(gp)}
            for variant, spectrum in closed.items():
                g = GraphSpec(k, p, m, variant)
                assert dense_spectrum(build_graph(g)) == spectrum, (k, p, m, variant)
