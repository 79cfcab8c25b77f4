import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import argparse

import pytest

import ppkit
from ppkit import families
from ppkit.cli import _resolve_delta, build_parser, main
from ppkit.errors import PPKitError
from ppkit.families import eval_family, family_for_theorem
from ppkit.gf import build_field
from ppkit.oracle import is_bijection
from ppkit.tower import build_tower


# a child process imports the ppkit that this one imported, installed or not
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(ppkit.__file__).parents[1]),
                                                os.environ.get("PYTHONPATH")])),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_field_info(capsys):
    code, out, _ = run_cli(capsys, "field-info", "--p", "3", "--m", "2")
    assert code == 0
    info = json.loads(out)
    assert info["q"] == 9 and info["modulus"] == [1, 0, 1]
    assert info["tower_kind"] == "odd" and info["tower_u"] in info["valid_us"]


def test_check_agreement_and_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--p", "3", "--m", "1", "--theorem", "3.14",
        "--delta", "0", "--gamma", "1",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["agree"] is True and rec["predicted"] is True


def test_check_by_trace(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--p", "13", "--m", "1", "--theorem", "3.6",
        "--trdelta", "2", "--gamma", "11",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["matched_case"] == "3.6(ii)"


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (2, 3), (2, 4)])
def test_trdelta_picks_the_least_delta_of_its_trace(p, m):
    tower = build_tower(build_field(p, m))
    least = {}
    for delta in range(tower.order):
        least.setdefault(tower.trace(delta), delta)
    assert sorted(least) == list(range(tower.q))
    for t in [-1, *range(tower.q), tower.q]:
        args = argparse.Namespace(delta=None, trdelta=t, theorem="3.6")
        if t in least:
            assert _resolve_delta(tower, args) == least[t]
        else:
            with pytest.raises(PPKitError, match=f"^no delta has trace {t}$"):
                _resolve_delta(tower, args)


def test_sweep_stdout_and_exit(capsys, tmp_path):
    out_file = tmp_path / "s.jsonl"
    code, out, err = run_cli(
        capsys, "sweep", "--p", "3", "--m", "1", "--theorem", "3.14",
        "--gamma-domain", "stated", "--out", str(out_file),
    )
    assert code == 0
    summary = json.loads(err)
    assert summary["disagreements"] == 0
    lines = out_file.read_text().strip().split("\n")
    assert len(lines) == summary["records"] == 18


def test_sweep_csv_format(capsys, tmp_path):
    out_file = tmp_path / "s.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--p", "3", "--m", "1", "--theorem", "3.14",
        "--out", str(out_file), "--format", "csv",
    )
    assert code == 0
    header = out_file.read_text().split("\n")[0]
    assert header.startswith("tid,p,m,")


def test_decompose(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--p", "3", "--m", "1", "--theorem", "3.14",
        "--delta", "4", "--gamma", "2",
    )
    assert code == 0
    assert json.loads(out)["values_match"] is True


def test_decompose_313_at_i_0(capsys):
    # i = 0 is a hypothesis probe: the exponent q + 1 gives the core a^2 - u z^2
    code, out, _ = run_cli(
        capsys, "decompose", "--p", "3", "--m", "2", "--theorem", "3.13",
        "--i", "0", "--delta", "1", "--gamma", "1",
    )
    assert code == 0
    assert json.loads(out)["values_match"] is True


def test_directions(capsys):
    code, out, _ = run_cli(
        capsys, "directions", "--p", "3", "--m", "1", "--theorem", "3.2",
        "--delta", "5", "--gamma", "2",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["complementary"] is True
    assert rep["direction_count"] + rep["permuting_count"] == 9


# sha256 of `ppkit directions` stdout, as printed when direction_set made two
# scalar adds per (x, h)
DIRECTIONS_STDOUT = {
    "F3^2": ("--p 3 --m 1 --theorem 3.14 --delta 0 --gamma 1",
             "3eda1122d67e603e81974860dca2944759e492402f700bbb47f6204e2bb00a49"),
    "F5^2": ("--p 5 --m 1 --theorem 3.14 --delta 1 --gamma 3",
             "cf74ce7c70ed4700c5a9dbda1d21cbf72375c7056f51f275116fa499d3368224"),
    "F7^2": ("--p 7 --m 1 --theorem 3.14 --delta 30 --gamma 4",
             "9ee6930f8943abbddf59b0eb6764b0d6581ec1eb5755077b7929851524b541d5"),
    "F7^2-3.13": ("--p 7 --m 1 --u 3 --theorem 3.13 --i 1 --delta 5 --gamma 2",
                  "db6c97b56dc0b84cf8ba26d1fc8ce93c1467fc5c23fb0be9ec367afd6aba8621"),
    "F4^2": ("--p 2 --m 2 --theorem 3.19 --delta 9 --gamma 5",
             "41103ea52c2cd94c9ea8a0adc844bf1e60ee7acc0a5b4c3e101bd58f020a7994"),
    "F25^2": ("--p 5 --m 2 --theorem 3.2 --delta 31 --gamma 3",
              "346147ff5bcfec250ce3c50f0ff146d30c16fef5c501169cf966396abeed1716"),
}


@pytest.mark.parametrize("argv,want", DIRECTIONS_STDOUT.values(), ids=list(DIRECTIONS_STDOUT))
def test_directions_stdout_is_pinned(capsys, argv, want):
    code, out, _ = run_cli(capsys, "directions", *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == want


@pytest.mark.parametrize(
    "p,m,theorem,delta",
    [(3, 1, "3.2", 5), (5, 1, "3.14", 7), (2, 2, "3.19", 9)],
)
def test_directions_answers_gamma_0(capsys, p, m, theorem, delta):
    argv = ["directions", "--p", str(p), "--m", str(m), "--theorem", theorem,
            "--delta", str(delta)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "gamma_permutes" not in json.loads(out)
    code, out, _ = run_cli(capsys, *argv, "--gamma", "0")
    assert code == 0
    tower = build_tower(build_field(p, m))
    spec = family_for_theorem(theorem, delta, 0)
    want = is_bijection(lambda x: eval_family(spec, tower, x).enc, tower.order)
    assert json.loads(out)["gamma_permutes"] is want.is_permutation


@pytest.mark.parametrize(
    "argv",
    ["decompose --p 3 --m 2 --theorem 3.6 --delta 5 --gamma 2",
     "directions --p 3 --m 1 --theorem 3.2 --delta 5 --gamma 2"],
    ids=["decompose", "directions"],
)
def test_point_query_evaluates_the_family_once(capsys, monkeypatch, argv):
    calls = []
    rows = families.delta_power_rows
    monkeypatch.setattr(families, "delta_power_rows", lambda *a: calls.append(a) or rows(*a))

    def scalar(*a):
        raise AssertionError("eval_family called")

    monkeypatch.setattr(families, "eval_family", scalar)
    code, _, _ = run_cli(capsys, *argv.split())
    assert code == 0 and len(calls) == 1


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "ppkit.cli", "sweep", "--p", "3"],
        capture_output=True, env=CHILD_ENV,
    )
    assert proc.returncode == 64


@pytest.mark.parametrize(
    "flags",
    ["--delta 5 --gamma 2", "--delta 5", "--trdelta 1", "--probe-hypotheses", "--gamma full",
     "--plan plan.json", "--workers 2"],
)
def test_sweep_rejects_point_flags(capsys, flags):
    argv = ["sweep", "--p", "3", "--m", "1", "--theorem", "3.14", *flags.split()]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 64 and out.out == ""
    assert out.err.startswith("ppkit") and ": error: " in out.err


@pytest.mark.parametrize("cmd", ["check", "decompose", "directions"])
def test_delta_and_trdelta_exclude_each_other(capsys, cmd):
    argv = [cmd, "--p", "3", "--m", "1", "--theorem", "3.14", "--delta", "1", "--trdelta", "2",
            "--gamma", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 64 and out.out == ""
    assert "not allowed with argument --delta" in out.err


def test_directions_takes_i_for_313_at_m_1(capsys):
    # i = 1 is outside [1, m) here, which is a hypothesis probe, not a parameter error
    code, out, _ = run_cli(
        capsys, "directions", "--p", "7", "--m", "1", "--u", "3", "--theorem", "3.13",
        "--delta", "5", "--gamma", "2", "--i", "1",
    )
    assert code == 0 and json.loads(out)["complementary"] is True


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "field-info", "--p", "4", "--m", "1")
    assert code == 65 and "ppkit:" in err


def test_io_error_exit_code(capsys):
    code, _, _ = run_cli(
        capsys, "sweep", "--p", "3", "--m", "1", "--theorem", "3.14",
        "--out", "/nonexistent-dir/x.jsonl",
    )
    assert code == 66


def test_sweep_deterministic_across_processes(tmp_path):
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        path = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "ppkit.cli", "sweep",
                "--p", "3", "--m", "2", "--theorem", "3.1",
                "--out", str(path),
            ],
            capture_output=True, env=CHILD_ENV,
        )
        assert proc.returncode == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "argv",
    [
        "check --p 3 --m 1 --theorem 3.14 --delta 99 --gamma 1",
        "check --p 3 --m 1 --theorem 3.14 --delta 1 --gamma 99",
        "check --p 3 --m 1 --theorem 3.14 --delta 1 --gamma -1",
        "check --p 2 --m 2 --theorem 4.1 --d 1 --gamma 99",
        "check --p 2 --m 2 --theorem 4.1 --d 1 --delta 3 --gamma 1",
        "check --p 3 --m 1 --theorem 3.2 --delta -1 --gamma 1",
        "check --p 3 --m 2 --theorem 3.13 --delta 1 --gamma 1",
        "decompose --p 3 --m 1 --theorem 3.14 --delta 99",
        "directions --p 3 --m 1 --theorem 3.14 --delta 99",
        "field-info --p 3 --m 1 --u 1",
        "sweep --p 3 --m 1 --theorem 3.13",
        "sweep --p 3 --m 0 --theorem 3.14",
        "field-info --p 3 --m 0",
        "check --p 3 --m -1 --theorem 3.14 --gamma 1",
        "sweep --p 2 --m 2 --theorem 4.1 --d 1 --u 3",
        "check --p 2 --m 2 --theorem 4.1 --d 1 --u 0 --gamma 1",
        "check --p 2 --m 2 --theorem 4.1 --d 1 --trdelta 1 --gamma 1",
        "sweep --p 3 --m 1 --theorem 3.14 --i 7",
        "sweep --p 3 --m 1 --theorem 3.14 --d 3",
        "sweep --p 2 --m 1 --theorem 4.1 --d 0",
        "sweep --p 2 --m 1 --theorem 4.1 --d -1",
        "sweep --p 2 --m 1 --theorem 4.1 --d 99999",
        "decompose --p 2 --m 2 --theorem 4.1 --d 1",
        "directions --p 2 --m 2 --theorem 4.1 --d 1",
        "sweep --p 3 --m 2 --theorem 3.13 --i -1",
        "check --p 3 --m 2 --theorem 3.13 --i -1 --delta 1 --gamma 1",
        "decompose --p 3 --m 2 --theorem 3.13 --i -1 --delta 1 --gamma 1",
        "directions --p 3 --m 2 --theorem 3.13 --i -1 --delta 1 --gamma 1",
    ],
)
def test_bad_point_parameters_exit_65(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 65 and out == ""
    assert err.startswith("ppkit: ") and err.count("\n") == 1


@pytest.mark.parametrize("cmd", ["decompose", "directions"])
def test_tower_commands_refuse_the_trace_form_by_name(capsys, cmd):
    code, out, err = run_cli(capsys, cmd, "--p", "2", "--m", "2", "--theorem", "4.1", "--d", "1")
    assert code == 65 and out == ""
    assert err == f"ppkit: {cmd} works in a tower F_{{q^2}}; theorem 4.1 lives in F_{{q^d}}\n"


@pytest.mark.parametrize(
    "argv",
    [
        "check --p 3 --m 1 --theorem 3.14 --delta 0 --gamma 5",
        "check --p 2 --m 1 --theorem 4.1 --d 3 --gamma 1",
    ],
)
def test_check_exempts_hypothesis_violations_like_sweep(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    rec = json.loads(out)
    assert not rec["agree"] and rec["note"].startswith("hypothesis-violated")
    assert code == 0


def test_one_parser_serves_every_call(capsys):
    assert build_parser() is build_parser()
    argvs = [
        "sweep --p 3 --m 1 --theorem 3.14 --gamma-domain full",
        "sweep --p 3 --m 1 --theorem 3.14",
        "sweep --p 3",
        "check --p 3 --m 1 --theorem 3.14 --delta 99 --gamma 1",
        "check --p 3 --m 1 --theorem 3.14 --delta 0 --gamma 1",
    ]
    got = []
    for argv in argvs:
        try:
            code = main(argv.split())
        except SystemExit as exc:
            code = exc.code
        got.append((code, capsys.readouterr().out))
    fresh = [
        subprocess.run([sys.executable, "-m", "ppkit.cli", *argv.split()], capture_output=True,
                       text=True, env=CHILD_ENV)
        for argv in argvs
    ]
    assert got == [(proc.returncode, proc.stdout) for proc in fresh]
    assert [code for code, _ in got] == [0, 0, 64, 65, 0]
    assert len(got[1][1].splitlines()) == 18  # the stated domain after the full one


def test_check_resolves_its_field_once(capsys, monkeypatch):
    from ppkit import cli, sweep, tower

    base = build_field(7, 2)
    canonical = ppkit.valid_us(base)[0]
    monkeypatch.setattr(base, "_towers", {})  # F_49 as if no tower had been built over it
    calls = {"theorem_context": 0, "build_tower": 0, "_admissible": 0}

    def counted(module, name):
        body = getattr(module, name)

        def wrapper(*args, **kw):
            calls[name] += 1
            return body(*args, **kw)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in [(cli, "theorem_context"), (sweep, "theorem_context"),
                         (families, "build_tower"), (tower, "_admissible")]:
        counted(module, name)
    # 3.2 reads no closed form, whose own build_tower is cached across tests
    argv = ["check", "--p", "7", "--m", "2", "--theorem", "3.2", "--gamma", "100"]
    for point in (["--delta", "444"], ["--trdelta", "3"]):
        code, out, _ = run_cli(capsys, *argv, *point)
        assert code == 0 and json.loads(out)["u"] == canonical
    # one field per check; the least admissible u is searched for once
    assert calls == {"theorem_context": 2, "build_tower": 2, "_admissible": canonical + 1}
