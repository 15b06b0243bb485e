"""CLI: exit codes, formats, JSON round-trips, cache, env caps, goldens."""
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from gpspec import cli, dioph
from gpspec.cli import main, render_report, render_spectrum, render_witnesses, table_csv
from gpspec.energy import is_complementary_equienergetic
from gpspec.family import find_equienergetic_family
from gpspec.spectra import GraphSpec, Variant, gp_spectrum, gpsum_spectrum
from referees import scan_cache

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run_cli(["spectrum", "-k", "3", "-p", "7", "-m", "3"], capsys)
        assert code == 0
        assert "[114]^1 [9]^114 [2]^114 [-12]^114" in out

    def test_out_of_scope_names_hypothesis(self, capsys):
        code, _, err = run_cli(["spectrum", "-k", "3", "-p", "7", "-m", "2"], capsys)
        assert code == 2
        assert "3 does not divide (q-1)/(p-1)" in err

    def test_out_of_scope_huge_m_is_one_short_line(self, capsys):
        # the quotient (q-1)/(p-1) of 7^1000000 has 845,098 digits; the
        # diagnostic gives its residue mod 3 instead
        code, out, err = run_cli(["spectrum", "-k", "3", "-p", "7", "-m", "1000000"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: 3 does not divide (q-1)/(p-1) = 1 (mod 3)\n"

    def test_verify_ok(self, capsys):
        code, out, _ = run_cli(["spectrum", "-k", "3", "-p", "7", "-m", "3", "--verify"], capsys)
        assert code == 0
        assert "verify[character-sum]: ok" in out
        assert "verify[dense-eigensolver]: ok" in out

    def test_verify_command(self, capsys):
        code, out, _ = run_cli(["verify", "-k", "4", "-p", "5", "-m", "4"], capsys)
        assert code == 0 and "ok" in out

    def test_nothing_to_verify(self, capsys):
        code, _, err = run_cli(["spectrum", "-k", "3", "-p", "7", "-m", "6", "--verify",
                                "--char-cap", "100", "--dense-cap", "100"], capsys)
        assert code == 2
        assert "exceeds every oracle cap" in err

    def test_verify_mismatch_exits_1(self, capsys, monkeypatch):
        import gpspec.cli as cli_mod

        wrong = gp_spectrum(GraphSpec(3, 7, 3))

        monkeypatch.setattr(cli_mod.oracle, "char_sum_spectrum",
                            lambda g, char_cap=None: wrong)
        code, out, _ = run_cli(["spectrum", "-k", "3", "-p", "2", "-m", "4", "--verify"], capsys)
        assert code == 1
        assert "verify[character-sum]: MISMATCH" in out
        assert "verify[dense-eigensolver]: ok" in out

    def test_verify_dense_mismatch_exits_1(self, capsys, monkeypatch):
        wrong = gp_spectrum(GraphSpec(3, 7, 3))
        monkeypatch.setattr(cli.oracle, "dense_spectrum", lambda d, engine="auto": wrong)
        code, out, _ = run_cli(["verify", "-k", "3", "-p", "2", "-m", "4"], capsys)
        assert code == 1
        assert "verify[character-sum]: ok\nverify[dense-eigensolver]: MISMATCH\n" in out

    @pytest.mark.parametrize("args,message", [
        (["-p", "9", "-m", "2"], "error: p = 9 is not prime"),
        (["-p", "7", "-m", "0"], "error: m = 0 must be >= 1"),
    ])
    def test_rejects_field_parameters(self, args, message, capsys):
        code, out, err = run_cli(["spectrum", "-k", "3", *args], capsys)
        assert code == 2 and out == ""
        assert err.startswith(message)

    def test_verify_gpsum_uses_dense_oracle(self, capsys):
        code, out, _ = run_cli(["spectrum", "-k", "3", "-p", "5", "-m", "2",
                                "--variant", "gpsum", "--verify"], capsys)
        assert code == 0
        assert "verify[dense-eigensolver]: ok" in out
        assert "character-sum" not in out

    def test_verify_sum_complement(self, capsys):
        code, out, _ = run_cli(["verify", "-k", "3", "-p", "2", "-m", "4",
                                "--variant", "gpsum-comp"], capsys)
        assert code == 0
        assert out.endswith("verify[dense-eigensolver]: ok\n")

    def test_out_of_memory_exits_2(self, capsys, monkeypatch, tmp_path):
        def exhausted(g, dense_cap):
            raise MemoryError
        monkeypatch.setattr(cli.oracle, "build_graph", exhausted)
        cache = tmp_path / "cache.jsonl"
        code, out, err = run_cli(["verify", "-k", "3", "-p", "2", "-m", "4", "--cache", str(cache)],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: out of memory; lower the cap")
        assert not cache.exists()

    @pytest.mark.parametrize("cached", [False, True])
    def test_internal_check_failure_exits_3(self, cached, capsys, monkeypatch, tmp_path):
        # a mul_pair that shifts the pair of level 8 of the family of 31 by
        # (3, 0): the recurrence check of lift.levels raises AssertionError
        wrong = find_equienergetic_family(31, 3, ell_max=8)[-1].pair
        real = cli.lift.mul_pair

        def shifted(u, v, coeff):
            w = real(u, v, coeff)
            return (w[0] + 3, w[1]) if w == wrong else w

        monkeypatch.setattr(cli.lift, "mul_pair", shifted)
        cache = tmp_path / "cache.jsonl"
        code, out, err = run_cli(["family", "-k", "3", "-p", "31", "--ell-max", "30"]
                                 + (["--cache", str(cache)] if cached else []), capsys)
        assert (code, out) == (3, "")
        assert err == "error: internal check failed: recurrence of k = 3 failed at level 8 of the family of 31\n"
        assert not cache.exists()

    @staticmethod
    def _run_faulty_solve(k, fault, command, cached, capsys, monkeypatch, tmp_path):
        """Run command on GP(3, 7^3) or GP(4, 5^4) by -m, with the solver's
        pair broken: "norm" shifts its first component by k, "admissible"
        keeps the norm but breaks x = 1 (mod k) (k = 3: a negated) or
        gcd(x, p) = 1 (k = 4: (5^t, 0))."""
        if k == 3:
            real_k3 = dioph._k3_pair

            def faulty(p, power):
                a, b = real_k3(p, power)
                return (a + 3, b) if fault == "norm" else (-a, b)
            monkeypatch.setattr(dioph, "_k3_pair", faulty)
        else:
            real_pow = dioph.pair_pow

            def faulty(pair, e, coeff):
                c, d = real_pow(pair, e, coeff)
                return (c + 4, d) if fault == "norm" else (5 ** e, 0)
            monkeypatch.setattr(dioph, "pair_pow", faulty)
        cache = tmp_path / "cache.jsonl"
        argv = [command, "-k", str(k), "-p", "7" if k == 3 else "5", "-m", str(k)]
        code, out, err = run_cli(argv + (["--cache", str(cache)] if cached else []), capsys)
        assert (code, out) == (3, "")
        assert not cache.exists()
        return err

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("command", ["spectrum", "energy"])
    @pytest.mark.parametrize("k,p", [(3, 7), (4, 5)])
    def test_solved_pair_off_its_norm_exits_3(self, k, p, command, cached, capsys, monkeypatch,
                                              tmp_path):
        err = self._run_faulty_solve(k, "norm", command, cached, capsys, monkeypatch, tmp_path)
        assert err == f"error: internal check failed: norm identity of k = {k} failed at {p}^1\n"

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("command", ["spectrum", "energy"])
    @pytest.mark.parametrize("k,p", [(3, 7), (4, 5)])
    def test_inadmissible_solved_pair_exits_3(self, k, p, command, cached, capsys, monkeypatch,
                                              tmp_path):
        err = self._run_faulty_solve(k, "admissible", command, cached, capsys, monkeypatch, tmp_path)
        assert err == (f"error: internal check failed: congruence/coprimality of k = {k} "
                       f"failed at {p}^1\n")


class TestSpectrumCommand:
    def test_lift_route_k4(self, capsys):
        code, out, _ = run_cli(["spectrum", "-k", "4", "-p", "5", "--lift", "2",
                                "--format", "json"], capsys)
        assert code == 0
        d = json.loads(out)
        values = {int(e["value"]) for e in d["spectrum"]}
        assert {456, -144, -244, -69} <= values
        assert d["principal"] == "97656"

    def test_lift_route_k3(self, capsys):
        code, out, _ = run_cli(["spectrum", "-k", "3", "-p", "7", "-t", "3", "-s", "1",
                                "--lift", "1", "--format", "json"], capsys)
        assert code == 0
        d = json.loads(out)
        assert {int(e["value"]) for e in d["spectrum"]} >= {75231, -18408, -56824}

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(["spectrum", "-k", "3", "-p", "2", "-m", "4",
                                "--format", "csv"], capsys)
        assert code == 0
        assert out == "eigenvalue,multiplicity\n5,1\n1,10\n-3,5\n"

    def test_variant_gpsum(self, capsys):
        code, out, _ = run_cli(["spectrum", "-k", "3", "-p", "7", "-m", "3",
                                "--variant", "gpsum"], capsys)
        assert code == 0 and "loops: 114" in out


class TestEnergyCommand:
    def test_case_a_bounds(self, capsys):
        code, out, _ = run_cli(["energy", "-k", "3", "-p", "7", "-m", "3"], capsys)
        assert code == 0
        assert "energy: 2736" in out and "684 <= E <=" in out

    def test_semiprimitive_exact(self, capsys):
        code, out, _ = run_cli(["energy", "-k", "4", "-p", "3", "-m", "4",
                                "--format", "json"], capsys)
        assert code == 0
        d = json.loads(out)
        assert d["energy"] == "280" and d["semiprimitive_exact"] == "280"


class TestEquienergeticCommand:
    @pytest.mark.parametrize("args,verdict", [
        (["-k", "3", "-p", "7", "-m", "6"], True),
        (["-k", "3", "-p", "7", "-m", "3"], False),
        (["-k", "4", "-p", "5", "-m", "8"], True),
        (["-k", "4", "-p", "5", "-m", "4"], False),
    ])
    def test_verdicts(self, args, verdict, capsys):
        code, out, _ = run_cli(["equienergetic"] + args, capsys)
        assert code == 0
        assert f"equienergetic with complement: {verdict}" in out
        assert "sign criterion agrees: True" in out


class TestFamilyCommand:
    def test_k4_p5(self, capsys):
        code, out, _ = run_cli(["family", "-k", "4", "-p", "5", "--ell-max", "5"], capsys)
        assert code == 0
        assert "equienergetic levels: [2, 5]" in out

    def test_k3_p7_s1(self, capsys):
        code, out, _ = run_cli(["family", "-k", "3", "-p", "7", "-t", "3", "-s", "1",
                                "--ell-max", "4"], capsys)
        assert code == 0
        assert "equienergetic levels: [1, 3]" in out

    def test_empty_range(self, capsys):
        code, out, _ = run_cli(["family", "-k", "3", "-p", "13", "--ell-max", "0"], capsys)
        assert code == 0
        assert "no levels probed" in out

    @pytest.mark.parametrize("fmt,expected", [
        ("json", '{"witnesses": []}\n'),
        ("csv", "ell,x,y,q_digits,equienergetic,interval_hit\n"),
    ])
    def test_empty_range_formats(self, fmt, expected, capsys):
        code, out, _ = run_cli(["family", "-k", "4", "-p", "5", "--ell-max", "0",
                                "--format", fmt], capsys)
        assert code == 0 and out == expected

    def test_negative_ell_max_rejected(self, capsys):
        code, out, err = run_cli(["family", "-k", "4", "-p", "5", "--ell-max", "-1"], capsys)
        assert code == 2 and out == ""
        assert "--ell-max must be 0 or more" in err

    def test_levels_past_the_str_limit(self, capsys):
        code, out, _ = run_cli(["family", "-k", "3", "-p", "31", "--ell-max", "1000",
                                "--format", "csv"], capsys)
        rows = out.splitlines()
        assert code == 0 and len(rows) == 1001
        assert rows[-1].split(",")[0] == "1000" and rows[-1].split(",")[3] == "4475"


class TestLiftCommand:
    def test_k3_levels(self, capsys):
        code, out, _ = run_cli(["lift", "-k", "3", "-p", "31", "--ell-max", "3",
                                "--format", "csv"], capsys)
        assert code == 0
        assert "1,4,-2,31^3" in out and "3,-308,30,31^9" in out

    def test_empty_range(self, capsys):
        code, out, _ = run_cli(["lift", "-k", "4", "-p", "5", "--ell-max", "0"], capsys)
        assert code == 0 and out == "ell,x,y,q\n"

    def test_lift_zero_is_the_empty_range(self, capsys):
        code, out, _ = run_cli(["lift", "-k", "4", "-p", "5", "--lift", "0"], capsys)
        assert code == 0 and out == "ell,x,y,q\n"

    def test_negative_lift_rejected(self, capsys):
        code, out, err = run_cli(["lift", "-k", "4", "-p", "5", "--lift", "-3"], capsys)
        assert code == 2 and out == ""
        assert "--lift must be 0 or more" in err

    def test_lift_levels_match_ell_max_levels(self, capsys):
        _, by_lift, _ = run_cli(["lift", "-k", "3", "-p", "7", "-s", "2", "--lift", "30"], capsys)
        _, by_ell_max, _ = run_cli(["lift", "-k", "3", "-p", "7", "-s", "2", "--ell-max", "30"],
                                   capsys)
        assert by_lift == by_ell_max and by_lift.count("\n") == 31
        assert by_lift.splitlines()[-1].endswith(",7^276")


class TestTables:
    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_golden(self, which):
        golden = (GOLDEN / f"table{which}.csv").read_text()
        assert table_csv(which) == golden

    def test_all_tables_cli(self, capsys):
        code, out, _ = run_cli(["tables"], capsys)
        assert code == 0
        assert out == table_csv(1) + table_csv(2) + table_csv(3)

    def test_table2_row5(self, capsys):
        code, out, _ = run_cli(["tables", "--table", "2"], capsys)
        assert "5,10324,542,31^15," in out

    def test_table1_row2(self, capsys):
        code, out, _ = run_cli(["tables", "--table", "1"], capsys)
        assert "2,-1763,-83,7^21," in out

    def test_table3_row4(self, capsys):
        code, out, _ = run_cli(["tables", "--table", "3"], capsys)
        assert "4,-527,168," in out

    def test_unknown_table(self):
        with pytest.raises(ValueError, match="^no table 4$"):
            table_csv(4)


class TestJsonRoundTrip:
    """json.loads of each render_* output holds every field, integers of any
    size as exact decimal strings."""

    def test_spectrum(self):
        g = GraphSpec(3, 7, 3, Variant.GPSUM)
        s = gpsum_spectrum(g)
        assert json.loads(render_spectrum(s, g, "json")) == {
            "spectrum": [{"value": str(v), "mult": str(e)} for v, e in s.entries],
            "principal": str(s.principal), "order": str(s.order), "loops": str(s.loops),
            "energy": str(s.energy()),
            "graph": {"k": 3, "p": 7, "m": 3, "variant": "gpsum"}}

    def test_report(self):
        g = GraphSpec(3, 7, 6)
        r = is_complementary_equienergetic(gp_spectrum(g))
        assert json.loads(render_report(r, g, "json")) == {
            "energy": str(r.energy), "complement_energy": str(r.complement_energy),
            "positive_nonprincipal_count": r.positive_nonprincipal_count,
            "equienergetic": r.equienergetic, "criterion_agrees": r.criterion_agrees,
            "graph": {"k": 3, "p": 7, "m": 6, "variant": "gp"}}

    @staticmethod
    def _witness_fields(w) -> dict:
        return {"p": w.p, "k": w.k, "t": w.t, "s": w.s, "ell": w.ell,
                "pair": [str(w.pair[0]), str(w.pair[1])], "equienergetic": w.equienergetic,
                "interval_hit": w.interval_hit, "q_digits": w.q_digits}

    def test_witness(self):
        ws = find_equienergetic_family(31, 3, ell_max=3)
        assert json.loads(render_witnesses(ws, "json")) == {
            "witnesses": [self._witness_fields(w) for w in ws]}

    def test_big_integers_survive(self):
        w = find_equienergetic_family(7, 3, s=1, ell_max=40)[-1]
        got = json.loads(render_witnesses([w], "json"))["witnesses"][0]
        assert got == self._witness_fields(w)
        assert tuple(map(int, got["pair"])) == w.pair and max(map(abs, w.pair)) > 2 ** 64


class TestCache:
    def test_cache_hit_is_byte_identical(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.jsonl")
        args = ["spectrum", "-k", "3", "-p", "7", "-m", "3", "--cache", cache]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(Path(cache).read_text().splitlines()) == 1  # hit did not append

    def test_cache_distinguishes_parameters(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.jsonl")
        run_cli(["spectrum", "-k", "3", "-p", "7", "-m", "3", "--cache", cache], capsys)
        run_cli(["spectrum", "-k", "3", "-p", "7", "-m", "6", "--cache", cache], capsys)
        assert len(Path(cache).read_text().splitlines()) == 2

    def test_cache_distinguishes_format(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.jsonl")
        run_cli(["spectrum", "-k", "3", "-p", "7", "-m", "3", "--cache", cache], capsys)
        code, out, _ = run_cli(["spectrum", "-k", "3", "-p", "7", "-m", "3",
                                "--format", "json", "--cache", cache], capsys)
        assert json.loads(out)["principal"] == "114"


class TestEnvOverrides:
    def test_env_cap_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("GPSPEC_CHAR_CAP", "100")
        monkeypatch.setenv("GPSPEC_DENSE_CAP", "100")
        code, _, err = run_cli(["spectrum", "-k", "3", "-p", "7", "-m", "3", "--verify"], capsys)
        assert code == 2 and "exceeds every oracle cap" in err

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GPSPEC_CHAR_CAP", "100")
        code, out, _ = run_cli(["spectrum", "-k", "3", "-p", "7", "-m", "3", "--verify",
                                "--char-cap", "1000", "--dense-cap", "1000"], capsys)
        assert code == 0 and "verify[character-sum]: ok" in out

    def test_nonpositive_cap_rejected(self, capsys):
        code, _, err = run_cli(["spectrum", "-k", "3", "-p", "7", "-m", "3",
                                "--char-cap", "-1"], capsys)
        assert code == 2 and "must be positive" in err

    def test_env_zero_ell_max_is_empty_range(self, capsys, monkeypatch):
        monkeypatch.setenv("GPSPEC_ELL_MAX", "0")
        code, out, _ = run_cli(["family", "-k", "4", "-p", "5"], capsys)
        assert code == 0 and out == "no levels probed\n"

    def test_env_nonpositive_cap_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("GPSPEC_CHAR_CAP", "0")
        code, _, err = run_cli(["spectrum", "-k", "3", "-p", "7", "-m", "3", "--verify"], capsys)
        assert code == 2 and "GPSPEC_CHAR_CAP must be positive" in err

    def test_env_malformed_cap_rejected(self):
        proc = subprocess.run([sys.executable, "-m", "gpspec.cli", "family",
                               "-k", "4", "-p", "5"],
                              capture_output=True, text=True,
                              env={**os.environ, "GPSPEC_ELL_MAX": "abc"})
        assert proc.returncode == 2 and proc.stdout == ""
        assert "GPSPEC_ELL_MAX must be an integer" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_flag_beats_malformed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GPSPEC_ELL_MAX", "abc")
        code, out, _ = run_cli(["family", "-k", "4", "-p", "5", "--ell-max", "2"], capsys)
        assert code == 0 and "equienergetic levels: [2]" in out


class TestFormerHangs:
    """Commands that scanned for a norm-form representation at the lifted
    exponent and ran for more than 15 s."""

    @pytest.mark.parametrize("args", [["-k", "3", "-p", "31", "--lift", "12"],
                                      ["-k", "4", "-p", "17", "--lift", "8"]])
    def test_energy_lift_subprocess(self, args):
        proc = subprocess.run([sys.executable, "-m", "gpspec.cli", "energy", *args],
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert "bounds: " in proc.stdout


class TestCompositeModulus:
    def test_pseudoprime_exits_2(self, capsys):
        # passes Miller-Rabin to every prime base up to 41; the strong Lucas
        # test rejects it, so the scope check answers before the base solve
        code, out, err = run_cli(["spectrum", "-k", "3", "-p", "3317044064679887385961981",
                                  "-m", "3"], capsys)
        assert code == 2 and out == ""
        assert "p = 3317044064679887385961981 is not prime" in err

    def test_pseudoprime_k4_exits_2(self, capsys):
        # -1 is a square mod both of its factors, so a k = 4 base solve would
        # succeed and describe a field that does not exist
        code, out, err = run_cli(["spectrum", "-k", "4", "-p", "3317044064679887385961981",
                                  "-m", "4"], capsys)
        assert code == 2 and out == ""
        assert "p = 3317044064679887385961981 is not prime" in err


def test_import_leaves_sympy_out():
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, gpspec.cli; print('sympy' in sys.modules)"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "False\n"


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "gpspec.cli", "spectrum",
                           "-k", "4", "-p", "5", "-m", "4"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "[156]^1" in proc.stdout


# ---------------------------------------------------------------------------
# The flag surface: each subcommand declares only the flags it reads
# ---------------------------------------------------------------------------

def run_argv(args, capsys):
    """Like run_cli, but an argparse rejection (SystemExit) gives its code."""
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


_GRAPH = {"-k", "-p", "-m", "--lift", "-t", "-s", "--variant", "--format", "--cache"}
FLAGS = {
    "spectrum": _GRAPH | {"--dense-cap", "--char-cap", "--verify"},
    "verify": _GRAPH | {"--dense-cap", "--char-cap"},
    "energy": _GRAPH,
    "equienergetic": _GRAPH,
    "lift": {"-k", "-p", "-t", "-s", "--lift", "--ell-max", "--format", "--cache"},
    "family": {"-k", "-p", "-t", "-s", "--ell-max", "--format", "--cache"},
    "tables": {"--table", "--cache"},
}


def test_each_subcommand_declares_its_flags():
    from gpspec.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    declared = {name: {a.option_strings[0] for a in sp._actions
                       if a.option_strings and a.option_strings[0] != "-h"}
                for name, sp in sub.choices.items()}
    assert declared == FLAGS
    assert sum(map(len, declared.values())) == 58


_BASE = {"spectrum": ["-k", "3", "-p", "7", "-m", "3"], "verify": ["-k", "3", "-p", "7", "-m", "3"],
         "energy": ["-k", "3", "-p", "7", "-m", "3"], "equienergetic": ["-k", "3", "-p", "7", "-m", "3"],
         "lift": ["-k", "3", "-p", "7"], "family": ["-k", "3", "-p", "7"], "tables": []}
_VALUE = {"-k": "3", "-p": "7", "-m": "5", "--lift": "4", "-t": "3", "-s": "1", "--variant": "comp",
          "--format": "json", "--dense-cap": "0", "--char-cap": "9", "--ell-max": "2",
          "--table": "1", "--verify": None, "--codeword-cap": "9"}


@pytest.mark.parametrize("command,flag", sorted(
    (c, f) for c in FLAGS for f in sorted(_VALUE) if f not in FLAGS[c]))
def test_undeclared_flag_rejected(command, flag, capsys):
    value = [] if _VALUE[flag] is None else [_VALUE[flag]]
    code, out, err = run_argv([command, *_BASE[command], flag, *value], capsys)
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err and "Traceback" not in err


class TestRejectedCombinations:
    def test_m_and_lift_exclude_each_other(self, capsys):
        code, out, err = run_argv(["spectrum", "-k", "3", "-p", "7", "-m", "3", "--lift", "1"],
                                  capsys)
        assert code == 2 and out == ""
        assert "not allowed with argument" in err

    def test_m_or_lift_required(self, capsys):
        code, out, err = run_argv(["energy", "-k", "3", "-p", "7"], capsys)
        assert code == 2 and out == "" and "-m --lift is required" in err

    def test_lift_and_ell_max_exclude_each_other(self, capsys):
        code, out, _ = run_argv(["lift", "-k", "4", "-p", "5", "--lift", "2", "--ell-max", "3"],
                                capsys)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("args", [
        ["lift", "-k", "4", "-p", "5", "-s", "1", "-t", "7", "--ell-max", "2"],
        ["spectrum", "-k", "4", "-p", "5", "-s", "1", "--lift", "1"],
    ])
    def test_k4_offsets_rejected(self, args, capsys):
        code, out, err = run_argv(args, capsys)
        assert code == 2 and out == ""
        assert "k=4 families take no (t, s) offsets" in err

    def test_offsets_with_m_rejected(self, capsys):
        code, out, err = run_argv(["spectrum", "-k", "3", "-p", "7", "-m", "3", "-t", "3", "-s", "1"],
                                  capsys)
        assert code == 2 and out == ""
        assert "-t and -s are lift offsets" in err

    @pytest.mark.parametrize("command,count", [("spectrum", ["--lift", "1"]),
                                               ("lift", ["--ell-max", "2"])])
    def test_k4_null_offsets_accepted(self, command, count, capsys):
        plain = [command, "-k", "4", "-p", "5", *count]
        code, out, _ = run_argv(plain + ["-t", "1", "-s", "0"], capsys)
        assert code == 0 and out == run_argv(plain, capsys)[1]


class TestLiftRoute:
    """--lift L names a level, the graph with m = k*(t*L + s); from there it
    takes the same route as -m, for every variant."""

    TWINS = [(["-k", "3", "-p", "31", "--lift", "2"], ["-k", "3", "-p", "31", "-m", "6"]),
             (["-k", "3", "-p", "7", "-s", "1", "--lift", "1"], ["-k", "3", "-p", "7", "-m", "12"]),
             (["-k", "3", "-p", "7", "-t", "3", "-s", "2", "--lift", "2"], ["-k", "3", "-p", "7", "-m", "24"]),
             (["-k", "4", "-p", "5", "--lift", "2"], ["-k", "4", "-p", "5", "-m", "8"]),
             (["-k", "4", "-p", "13", "-t", "1", "-s", "0", "--lift", "1"], ["-k", "4", "-p", "13", "-m", "4"])]

    @pytest.mark.parametrize("command", ["spectrum", "energy", "equienergetic"])
    @pytest.mark.parametrize("by_lift,by_m", TWINS)
    def test_lift_prints_what_its_m_twin_prints(self, command, by_lift, by_m, capsys):
        for variant in [v.value for v in Variant]:
            # q is odd: the sum graph has loops, so gpsum-comp exits 2 on both routes
            rejected = variant == "gpsum-comp" or (command == "equienergetic" and variant != "gp")
            for fmt in ("pretty", "json", "csv"):
                tail = ["--variant", variant, "--format", fmt]
                twin = run_argv([command, *by_m, *tail], capsys)
                assert run_argv([command, *by_lift, *tail], capsys) == twin, (variant, fmt)
                assert twin[0] == (2 if rejected else 0), (variant, fmt)

    @pytest.mark.parametrize("command", ["spectrum", "energy", "equienergetic"])
    @pytest.mark.parametrize("args,message", [
        (["-k", "3", "-p", "31", "--lift", "0"], "ell must be >= 1"),
        (["-k", "4", "-p", "5", "--lift", "-1"], "ell must be >= 1"),
        (["-k", "3", "-p", "7", "-t", "2", "--lift", "1"], "minimal exponent of p = 7 is 3, not 2"),
        (["-k", "3", "-p", "7", "-s", "3", "--lift", "1"], "s = 3 must satisfy 0 <= s < t = 3"),
        (["-k", "3", "-p", "5", "--lift", "1"], "p = 5 must be a prime with p = 1 (mod 3)"),
        (["-k", "4", "-p", "5", "-s", "1", "--lift", "1"], "k=4 families take no (t, s) offsets"),
        # -k 4 -p 7 -m 4 is an in-scope semiprimitive graph, but no level of a family
        (["-k", "4", "-p", "7", "--lift", "1"], "p = 7 must be a prime with p = 1 (mod 4)"),
    ])
    def test_single_fault_rejected(self, command, args, message, capsys):
        code, out, err = run_argv([command, *args], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


class TestBaseSolves:
    """A family's base pairs, its minimal exponent and offset pair included,
    cost one Cornacchia solve, and a spectrum one more."""

    @pytest.mark.parametrize("argv,most", [
        (["spectrum", "-k", "3", "-p", "7", "-s", "1", "--lift", "2"], 2),
        (["spectrum", "-k", "3", "-p", "13", "--lift", "2"], 2),
        (["spectrum", "-k", "4", "-p", "5", "--lift", "2"], 2),
        (["spectrum", "-k", "3", "-p", "7", "-m", "9"], 1),
        (["lift", "-k", "3", "-p", "7", "-s", "1", "--ell-max", "5"], 1),
        (["family", "-k", "3", "-p", "7", "-s", "2", "--ell-max", "5"], 1),
        (["tables"], 4),
    ])
    def test_solve_count(self, argv, most, capsys, monkeypatch):
        from gpspec import dioph

        calls = []
        base = dioph._base
        monkeypatch.setattr(dioph, "_base", lambda *a: calls.append(a) or base(*a))
        code, _, _ = run_cli(argv, capsys)
        assert code == 0 and 0 < len(calls) <= most, calls


def test_big_p_proved_prime_and_solved_once(capsys):
    """A closed-form command tests its p once and solves its base pair once,
    however many layers ask."""
    from gpspec import dioph, ff

    p = 10 ** 99 + 289                          # the least prime above 10^99 with p = 1 (mod 4)
    ff.is_prime.cache_clear()
    dioph._base.cache_clear()
    code, _, _ = run_cli(["energy", "-k", "4", "-p", str(p), "-m", "40"], capsys)
    assert code == 0
    assert ff.is_prime.cache_info().misses == 1
    assert dioph._base.cache_info().misses == 1


def _decimal(n: int) -> str:
    """str(n) past the interpreter's int/str digit limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int/str digit limit")
class TestHugeIntegers:
    """Results past the interpreter's 4300-digit int/str limit print in full,
    and main leaves the limit as it found it."""

    @pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
    @pytest.mark.parametrize("ell", [900, 1500])
    def test_deep_level_in_every_format(self, ell, fmt, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, err = run_argv(["spectrum", "-k", "3", "-p", "31", "--lift", str(ell),
                                   "--format", fmt], capsys)
        assert code == 0 and err == ""
        assert sys.get_int_max_str_digits() == limit
        assert _decimal((31 ** (3 * ell) - 1) // 3) in out
        assert out == run_argv(["spectrum", "-k", "3", "-p", "31", "-m", str(3 * ell),
                                "--format", fmt], capsys)[1]

    def test_limit_restored_after_an_error(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, _, _ = run_argv(["spectrum", "-k", "3", "-p", "7", "-m", "2"], capsys)
        assert code == 2 and sys.get_int_max_str_digits() == limit

    def test_arguments_parse_under_the_limit(self, capsys):
        code, out, err = run_argv(["spectrum", "-k", "3", "-p", "1" * 5000, "-m", "3"], capsys)
        assert code == 2 and out == "" and "invalid int value" in err


def test_golden_cli_outputs():
    """Every argv of tests/golden/cli_outputs.jsonl exits and prints as
    recorded (tests/record_cli_golden.py)."""
    from record_cli_golden import GOLDEN, run

    entries = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    assert len(entries) > 500
    changed = [" ".join(e["argv"]) for e in entries if run(e["argv"]) != e]
    assert not changed, changed


class TestCacheRobustness:
    @pytest.mark.parametrize("code", [0, 1])
    def test_append_spells_the_record_by_hand(self, code, tmp_path):
        """A record is byte for byte the hand spelling {code, key, output}
        with ', ' and ': ' separators, and holds the lookup needle."""
        key = '{"a": "x\\"y", "b": "\\\\"}'
        output = "Übersicht: λ\t= -12\nvérifié ✓\n"
        path = tmp_path / "cache.jsonl"
        cli._cache_append(str(path), key, output, code)
        spelled = f'{{"code": {code:d}, "key": {json.dumps(key)}, "output": {json.dumps(output)}}}\n'
        assert path.read_bytes() == spelled.encode("utf-8")
        assert cli._key_field(key).encode("utf-8") in path.read_bytes()

    def test_truncated_line_is_a_miss(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        args = ["spectrum", "-k", "3", "-p", "7", "-m", "3"]
        _, expected, _ = run_cli(args, capsys)
        run_cli(["energy", "-k", "3", "-p", "7", "-m", "3", "--cache", str(cache)], capsys)
        whole = cache.read_text()
        with open(cache, "a", encoding="utf-8") as fh:
            fh.write(whole[:len(whole) // 2])               # a record cut short, no newline
        for _ in range(2):                                  # a miss that appends, then a hit
            code, out, err = run_argv(args + ["--cache", str(cache)], capsys)
            assert code == 0 and out == expected and err == ""
            assert len(cache.read_text().splitlines()) == 3  # the cut line was ended first

    def test_unread_env_cap_keeps_one_entry(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache.jsonl"
        args = ["spectrum", "-k", "3", "-p", "7", "-m", "3", "--cache", str(cache)]
        monkeypatch.delenv("GPSPEC_ELL_MAX", raising=False)
        _, first, _ = run_cli(args, capsys)
        monkeypatch.setenv("GPSPEC_ELL_MAX", "7")
        _, second, _ = run_cli(args, capsys)
        assert second == first
        assert len(cache.read_text().splitlines()) == 1

    @pytest.mark.parametrize("args,env,value", [
        (["spectrum", "-k", "4", "-p", "5", "-m", "4"], "GPSPEC_DENSE_CAP", "100"),
        (["spectrum", "-k", "4", "-p", "5", "-m", "4"], "GPSPEC_CHAR_CAP", "100"),
        (["lift", "-k", "4", "-p", "5", "--lift", "2"], "GPSPEC_ELL_MAX", "7"),
    ])
    def test_unread_value_keeps_one_entry(self, args, env, value, tmp_path, capsys, monkeypatch):
        """Without --verify no oracle reads a cap, and --lift sets lift's count."""
        cache = tmp_path / "cache.jsonl"
        monkeypatch.delenv(env, raising=False)
        _, first, _ = run_cli(args + ["--cache", str(cache)], capsys)
        monkeypatch.setenv(env, value)
        _, second, _ = run_cli(args + ["--cache", str(cache)], capsys)
        assert second == first
        assert len(cache.read_text().splitlines()) == 1

    @pytest.mark.parametrize("args,env", [
        (["spectrum", "-k", "4", "-p", "5", "-m", "4"], "GPSPEC_DENSE_CAP"),
        (["lift", "-k", "4", "-p", "5", "--lift", "2"], "GPSPEC_ELL_MAX"),
    ])
    def test_unread_value_still_checked(self, args, env, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(env, "-1")
        code, out, err = run_cli(args + ["--cache", str(tmp_path / "cache.jsonl")], capsys)
        assert code == 2 and out == "" and env in err

    def test_read_caps_stay_in_the_key(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        args = ["spectrum", "-k", "3", "-p", "7", "-m", "3", "--verify", "--cache", str(cache)]
        run_cli(args, capsys)
        run_cli(args + ["--dense-cap", "100"], capsys)
        assert len(cache.read_text().splitlines()) == 2

    def test_other_version_misses_once(self, tmp_path, capsys, monkeypatch):
        import gpspec.cli

        cache = tmp_path / "cache.jsonl"
        args = ["spectrum", "-k", "3", "-p", "7", "-m", "3", "--cache", str(cache)]
        _, first, _ = run_cli(args, capsys)
        monkeypatch.setattr(gpspec.cli, "__version__", "0.0.0+other")
        for _ in range(2):                                  # a miss that appends, then a hit
            _, out, _ = run_cli(args, capsys)
            assert out == first
            assert len(cache.read_text().splitlines()) == 2

    def test_directory_exits_2(self, tmp_path, capsys):
        code, out, err = run_cli(["spectrum", "-k", "3", "-p", "7", "-m", "3",
                                  "--cache", str(tmp_path)], capsys)
        assert code == 2 and out == "" and f"--cache {tmp_path}" in err

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        cache = tmp_path / "missing" / "cache.jsonl"
        code, out, err = run_cli(["spectrum", "-k", "3", "-p", "7", "-m", "3",
                                  "--cache", str(cache)], capsys)
        assert code == 2 and out == "" and f"--cache {cache}" in err
        assert not cache.parent.exists()

    def test_line_not_utf8_is_a_miss(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        args = ["spectrum", "-k", "3", "-p", "7", "-m", "3", "--cache", str(cache)]
        _, expected, _ = run_cli(args, capsys)
        cache.write_bytes(b"\xff" + cache.read_bytes())   # the record's line no longer decodes
        for _ in range(2):                                  # a miss that appends, then a hit
            code, out, err = run_cli(args, capsys)
            assert code == 0 and out == expected and err == ""
            assert len(cache.read_bytes().splitlines()) == 2

    @pytest.mark.parametrize("extra", [{}, {"output": 7, "code": 0}, {"output": "x", "code": 2},
                                       {"output": "x", "code": True}, {"output": "x"}])
    def test_record_without_a_usable_result_is_a_miss(self, tmp_path, capsys, extra):
        """A line with the key but no output string or no code 0/1 is passed
        over: the command runs, prints and appends one good record."""
        cache = tmp_path / "cache.jsonl"
        args = ["spectrum", "-k", "3", "-p", "7", "-m", "3", "--cache", str(cache)]
        _, expected, _ = run_cli(args, capsys)
        key = json.loads(cache.read_text())["key"]
        cache.write_text(json.dumps({"key": key, **extra}) + "\n")
        code, out, err = run_cli(args, capsys)
        assert (code, out, err) == (0, expected, "")
        lines = cache.read_text().splitlines()
        assert len(lines) == 2 and json.loads(lines[1]) == {"code": 0, "key": key, "output": expected}
        assert run_cli(args, capsys) == (0, expected, "") and len(cache.read_text().splitlines()) == 2

    def test_golden_replay_through_the_cache(self, tmp_path):
        """Every golden argv that exits 0, run twice through one cache: the
        miss appends one line, the hit none, and both print as recorded."""
        from record_cli_golden import GOLDEN, run

        # parses to the arguments of ``tables``, which comes first: a hit at once
        alias = ["tables", "--table", "all"]
        cache = tmp_path / "cache.jsonl"
        entries = [e for e in map(json.loads, GOLDEN.read_text(encoding="utf-8").splitlines())
                   if e["code"] == 0]
        for replay in ("miss", "hit"):
            for e in entries:
                before = cache.read_bytes().count(b"\n") if cache.exists() else 0
                got = run(e["argv"] + ["--cache", str(cache)])
                grown = cache.read_bytes().count(b"\n") - before
                where = (replay, e["argv"])
                assert got["code"] == e["code"] and got["stdout_sha256"] == e["stdout_sha256"], where
                assert grown == (replay == "miss" and e["argv"] != alias), where
        assert cache.read_bytes().count(b"\n") == len(entries) - 1


_FUZZ_COMMANDS = ["spectrum", "energy", "equienergetic", "lift", "family", "tables"]
_FUZZ_FLAGS = ["-k", "-p", "-m", "-t", "-s", "--lift", "--variant", "--format", "--dense-cap",
               "--char-cap", "--ell-max", "--table", "--cache", "--codeword-cap"]
_FUZZ_VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["", "x", "1.5", "-", "0x7", "3317044064679887385961981", "gp", "gpsum",
                     "comp", "gpsum-comp", "json", "csv", "pretty", "all", "1", "3", "4", "5",
                     "7", "13", "31"]))


@pytest.fixture(scope="module")
def fuzz_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "cache.jsonl")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(_FUZZ_COMMANDS),
       flags=st.lists(st.tuples(st.sampled_from(_FUZZ_FLAGS), _FUZZ_VALUES), max_size=7))
def test_fuzz_exits_0_1_or_2(fuzz_cache, command, flags):
    argv = [command]
    for flag, value in flags:
        argv += [flag, fuzz_cache if flag == "--cache" else value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())


# ---------------------------------------------------------------------------
# Per-call cost: one parser per process, numpy only for the oracles, and a
# cache lookup by the key's text
# ---------------------------------------------------------------------------

class TestParserOnce:
    def test_main_builds_no_parser_after_the_first(self, capsys, monkeypatch):
        import argparse

        run_cli(["tables", "--table", "1"], capsys)
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **kw: built.append(a) or init(self, *a, **kw))
        for argv in (["spectrum", "-k", "3", "-p", "7", "-m", "3"], ["lift", "-k", "4", "-p", "5"],
                     ["family", "-k", "4", "-p", "5", "--ell-max", "2"]):
            assert run_cli(argv, capsys)[0] == 0
        assert built == []

    def test_environment_read_on_every_call(self, capsys, monkeypatch):
        monkeypatch.setenv("GPSPEC_ELL_MAX", "1")
        _, one, _ = run_cli(["lift", "-k", "4", "-p", "5"], capsys)
        monkeypatch.setenv("GPSPEC_ELL_MAX", "3")
        _, three, _ = run_cli(["lift", "-k", "4", "-p", "5"], capsys)
        assert len(one.splitlines()) == 2 and len(three.splitlines()) == 4


def test_verify_leaves_numpy_ma_out():
    """Under a numpy whose import leaves numpy.ma out (2.x), so does verify;
    under one that loads it at import this holds trivially."""
    script = ("import contextlib, io, sys\n"
              "import numpy\n"
              "before = 'numpy.ma' in sys.modules\n"
              "from gpspec.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    main(['verify', '-k', '3', '-p', '7', '-m', '3'])\n"
              "print(before or 'numpy.ma' not in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "True\n", proc.stderr


def test_numpy_loads_only_for_the_oracles():
    script = ("import contextlib, io, sys\n"
              "from gpspec.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    main(['spectrum', '-k', '3', '-p', '7', '-m', '3'])\n"
              "    main(['energy', '-k', '3', '-p', '97', '-m', '18'])\n"
              "    print('numpy' in sys.modules, file=sys.stderr)\n"
              "    main(['verify', '-k', '3', '-p', '7', '-m', '3'])\n"
              "    print('numpy' in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "False\nTrue\n", proc.stderr


class CacheMachine(RuleBasedStateMachine):
    """Appends records, truncated records and foreign lines to one cache
    file, and looks keys up: ``_cache_lookup`` must answer as the
    line-by-line referee does."""

    # a small alphabet, so that keys repeat and prefix one another; '"', '\\'
    # and newlines are escaped in the key's text, and 'é' is not ASCII
    keys = st.text(alphabet='a"\\\né', max_size=2)
    outputs = st.one_of(st.text(max_size=6), keys.map(lambda k: '"key": ' + json.dumps(k)))
    codes = st.sampled_from([0, 1])

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp()
        self.path = os.path.join(self.dir, "cache.jsonl")

    def teardown(self):
        shutil.rmtree(self.dir)

    def _write(self, data: bytes) -> None:
        with open(self.path, "ab") as fh:
            fh.write(data)

    @staticmethod
    def _line(obj) -> bytes:
        return json.dumps(obj, sort_keys=True).encode("utf-8")

    @rule(key=keys, output=outputs, code=codes)
    def append(self, key, output, code):
        cli._cache_append(self.path, key, output, code)

    @rule(key=keys, output=outputs, code=codes, cut=st.floats(0, 1, exclude_max=True))
    def append_truncated(self, key, output, code, cut):
        line = self._line({"code": code, "key": key, "output": output})
        self._write(line[:int(cut * len(line))])

    @rule(key=keys, output=outputs, code=codes,
          wrap=st.sampled_from(["list", "nested", "not-utf8", "trailing"]))
    def append_foreign(self, key, output, code, wrap):
        """A line holding a record's key text that is no record of the cache."""
        rec = {"code": code, "key": key, "output": output}
        if wrap == "list":
            line = self._line([rec])
        elif wrap == "nested":
            line = self._line({"entry": rec})
        elif wrap == "not-utf8":                           # in the output, a byte UTF-8 never has
            line = self._line(rec)[:-2] + b"\xff" + self._line(rec)[-2:]
        else:                                              # text after the record
            line = self._line(rec) + b" x"
        self._write(line + b"\n")

    @rule(key=keys, output=st.one_of(outputs, st.none(), st.integers(0, 1)),
          code=st.one_of(st.sampled_from([2, -1, True, False, 0.0, "0"]), codes),
          drop=st.sampled_from(["none", "output", "code", "both"]))
    def append_unusable(self, key, output, code, drop):
        """A record with the key whose output is no string or whose code is
        not 0 or 1 (or which lacks either), as no append writes it."""
        rec = {"code": code, "key": key, "output": output}
        if drop in ("output", "both"):
            del rec["output"]
        if drop in ("code", "both"):
            del rec["code"]
        self._write(self._line(rec) + b"\n")

    @rule(data=st.binary(max_size=12))
    def append_bytes(self, data):
        self._write(data)

    @rule(key=keys)
    def lookup(self, key):
        assert cli._cache_lookup(self.path, key) == scan_cache(self.path, key)


TestCacheMachine = CacheMachine.TestCase
TestCacheMachine.settings = settings(max_examples=150, stateful_step_count=30, deadline=None,
                                     derandomize=True, database=None)
