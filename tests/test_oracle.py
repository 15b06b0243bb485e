"""Brute-force oracles: graph construction, both eigensolvers, code weights."""
import itertools

import numpy as np
import pytest

from conftest import in_scope_instances
from gpspec.errors import BadInput, BadK, CapExceeded, NonIntegral, OutOfScope
from gpspec.ff import kth_power_residues, make_field
from gpspec.oracle import (JACOBI_MAX_N, DenseGraph, _code_table, _round_robin, build_graph,
                           char_sum_spectrum, code_weight_distribution, dense_eigenvalues,
                           dense_spectrum, weight_eigenvalue_check)
from gpspec.spectra import GraphSpec, Variant, complement_spectrum, gp_spectrum, gpsum_spectrum
from referees import char_sum_eigenvalue


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
        gp = build_graph(GraphSpec(3, 2, 4))
        comp = build_graph(GraphSpec(3, 2, 4, Variant.GP_COMPLEMENT))
        assert np.array_equal(comp.adjacency + gp.adjacency,
                              1 - np.eye(16, dtype=np.uint8))

    def test_sum_complement_keeps_diagonal(self):
        gpsum = build_graph(GraphSpec(3, 7, 1, Variant.GPSUM))
        comp = build_graph(GraphSpec(3, 7, 1, Variant.GPSUM_COMPLEMENT))
        assert np.array_equal(np.diag(comp.adjacency), np.diag(gpsum.adjacency))
        off = ~np.eye(7, dtype=bool)
        assert np.array_equal(comp.adjacency[off], 1 - gpsum.adjacency[off])

    def test_complement_spectrum_agrees_with_dense(self):
        g = GraphSpec(3, 2, 6, Variant.GP_COMPLEMENT)
        assert dense_spectrum(build_graph(g)) == complement_spectrum(gp_spectrum(GraphSpec(3, 2, 6)))

    def test_code_table_matches_field_arithmetic(self):
        """The digitwise code table against FieldSpec.add and FieldSpec.neg,
        entry by entry, for every field of an in-scope graph with q <= 125."""
        for p, m in sorted({(p, m) for _, p, m in in_scope_instances(125)}):
            fld = make_field(p, m)
            diff, total = _code_table(p, m, -1), _code_table(p, m, 1)
            assert diff.dtype == total.dtype == np.int32
            for v in range(fld.q):
                assert diff[v].tolist() == [fld.add(w, fld.neg(v)) for w in range(fld.q)], (p, m, v)
                assert total[v].tolist() == [fld.add(w, v) for w in range(fld.q)], (p, m, v)

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

    @pytest.mark.parametrize("entry", [257, 1.5, -255])
    def test_dense_graph_checks_entries_before_any_cast(self, entry):
        # each of these casts to 1 as uint8, which would pass for K_2
        with pytest.raises(BadInput, match="0/1"):
            DenseGraph(np.array([[0, entry], [entry, 0]]))

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
        for variant in (Variant.GP, Variant.GPSUM, Variant.GP_COMPLEMENT):
            d = build_graph(GraphSpec(k, p, m, variant))
            whole = DenseGraph(d.adjacency)
            halved = DenseGraph(d.adjacency, pairs)
            for engine in ("jacobi", "lapack") if d.q <= JACOBI_MAX_N else ("auto",):
                expected = dense_eigenvalues(whole, engine=engine)
                for split in (d, halved):
                    assert np.allclose(dense_eigenvalues(split, engine=engine), expected, rtol=0, atol=1e-9), \
                        (k, p, m, variant, engine, split.orbits.shape)

    def test_jacobi_no_convergence_reports_sweeps(self):
        from gpspec.errors import NoConvergence
        from gpspec.oracle import _jacobi_eigenvalues

        adj = build_graph(GraphSpec(3, 2, 4)).adjacency
        with pytest.raises(NoConvergence) as err:
            _jacobi_eigenvalues(adj, max_sweeps=1)
        assert err.value.sweeps == 1


class TestWeightDistribution:
    def test_gp_3_16(self):
        dist = code_weight_distribution(3, 2, 4)
        assert dist.entries == ((0, 1), (2, 10), (4, 5))

    def test_gp_3_343(self):
        dist = code_weight_distribution(3, 7, 3)
        assert dist.entries == ((0, 1), (90, 114), (96, 114), (108, 114))

    def test_zero_codeword(self):
        dist = code_weight_distribution(4, 5, 4)
        assert dist.as_dict()[0] == 1

    def test_rejects_out_of_scope(self):
        with pytest.raises(OutOfScope):
            code_weight_distribution(3, 7, 2)

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
        assert code_weight_distribution(k, p, m).entries == tuple(sorted(tally.items()))


class TestWeightEigenvalueCheck:
    @pytest.mark.parametrize("k,p,m", [(3, 2, 4), (3, 7, 3), (4, 5, 4), (4, 3, 6), (3, 5, 4)])
    def test_examples(self, k, p, m):
        assert weight_eigenvalue_check(k, p, m) is True


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

    def test_dense_agreement_to_dense_cap(self):
        for (k, p, m) in in_scope_instances(1500):
            gp = gp_spectrum(GraphSpec(k, p, m))
            closed = {Variant.GP: gp, Variant.GPSUM: gpsum_spectrum(GraphSpec(k, p, m, Variant.GPSUM)),
                      Variant.GP_COMPLEMENT: complement_spectrum(gp)}
            for variant, spectrum in closed.items():
                g = GraphSpec(k, p, m, variant)
                assert dense_spectrum(build_graph(g)) == spectrum, (k, p, m, variant)
