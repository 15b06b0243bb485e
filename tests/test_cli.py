"""CLI: exit codes, formats, JSON round-trips, cache, env caps, goldens."""
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpspec.cli import (graph_from_dict, main, report_from_dict, report_to_dict,
                        spectrum_from_dict, spectrum_to_dict, table_csv, witness_from_dict,
                        witness_to_dict)
from gpspec.energy import is_complementary_equienergetic
from gpspec.family import find_equienergetic_family
from gpspec.spectra import GraphSpec, Variant, gp_spectrum, gpsum_spectrum

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

    def test_verify_gpsum_uses_dense_oracle(self, capsys):
        code, out, _ = run_cli(["spectrum", "-k", "3", "-p", "5", "-m", "2",
                                "--variant", "gpsum", "--verify"], capsys)
        assert code == 0
        assert "verify[dense-eigensolver]: ok" in out
        assert "character-sum" not in out


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


class TestJsonRoundTrip:
    def test_spectrum(self):
        g = GraphSpec(3, 7, 3, Variant.GPSUM)
        s = gpsum_spectrum(g)
        d = json.loads(json.dumps(spectrum_to_dict(s, g)))
        assert spectrum_from_dict(d) == s
        assert graph_from_dict(d["graph"]) == g

    def test_report(self):
        r = is_complementary_equienergetic(gp_spectrum(GraphSpec(3, 7, 6)))
        assert report_from_dict(json.loads(json.dumps(report_to_dict(r)))) == r

    def test_witness(self):
        w = find_equienergetic_family(31, 3, ell_max=3)[-1]
        assert witness_from_dict(json.loads(json.dumps(witness_to_dict(w)))) == w

    def test_big_integers_survive(self):
        w = find_equienergetic_family(7, 3, s=1, ell_max=40)[-1]
        assert witness_from_dict(json.loads(json.dumps(witness_to_dict(w)))) == w


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
        # passes ff.is_prime (exact only below it); the base solve notices
        code, out, err = run_cli(["spectrum", "-k", "3", "-p", "3317044064679887385961981",
                                  "-m", "3"], capsys)
        assert code == 2 and out == ""
        assert "is 3317044064679887385961981 prime?" in err


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


class TestCacheRobustness:
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
