import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import argparse
import contextlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st

import ppkit
from ppkit import families
from ppkit.cli import _grammar, _read_argv, _resolve_delta, build_parser, main
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


# sha256 of stdout of the other JSON-printing commands, as printed by
# json.dumps(..., indent=2)
STDOUT = {
    "check-F8": ("check --p 2 --m 3 --theorem 3.19 --delta 9 --gamma 5",
                 "662c905c8f0373eeacefe9760b1d33de500381e37b3e22f625798c68567320d4"),
    "check-F3-note": ("check --p 3 --m 1 --theorem 3.14 --delta 0 --gamma 5",
                      "9698829f4a08fad56d5b85dc8978971b43d5a2903dd488f23cf9855f8b84a248"),
    "decompose-F9": ("decompose --p 3 --m 2 --theorem 3.6 --delta 40 --gamma 2",
                     "dba8dc6e68416091fe31206a4cb68daabc8d60785df4cc8e4f03f101e413b94c"),
    "decompose-F5": ("decompose --p 5 --m 1 --theorem 3.14 --delta 7 --gamma 3",
                     "4225d99f5bccbef03594d05b460f0c1739fc4052e08cdda03a88ed47e68d096c"),
    "field-info-F9": ("field-info --p 3 --m 2",
                      "6b31526e2796cea7177864d53c7eb766ffc046a6423625c9685f7b995b018df5"),
    "field-info-F16": ("field-info --p 2 --m 4",
                       "f7e49ff8ef02c6bbd7b0f486b80330d93b9f525d88b42b75cd5c984fd1a5c4be"),
}


@pytest.mark.parametrize("argv,want", STDOUT.values(), ids=list(STDOUT))
def test_stdout_is_pinned(capsys, argv, want):
    code, out, _ = run_cli(capsys, *argv.split())
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
        "check --p 3 --m 1 --theorem 3.14 --delta 1",
        "check --p 2 --m 2 --theorem 4.1 --d 1 --gamma 99",
        "check --p 2 --m 2 --theorem 4.1 --d 1 --delta 3 --gamma 1",
        "check --p 3 --m 1 --theorem 3.2 --delta -1 --gamma 1",
        "check --p 3 --m 2 --theorem 3.13 --delta 1 --gamma 1",
        "decompose --p 3 --m 1 --theorem 3.14 --delta 99",
        "directions --p 3 --m 1 --theorem 3.14 --delta 99",
        "field-info --p 3 --m 1 --u 1",
        "field-info --p 1000000000000000009 --m 1",  # past the bound: refused before any trial division
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


@pytest.mark.parametrize("cmd", ["check", "decompose", "directions"])
@pytest.mark.parametrize("name", ["delta", "gamma"])
def test_range_errors_name_the_parameter(capsys, cmd, name):
    point = {"delta": "1", "gamma": "1", name: "49"}
    code, out, err = run_cli(capsys, cmd, "--p", "7", "--m", "1", "--theorem", "3.6",
                             "--delta", point["delta"], "--gamma", point["gamma"])
    assert (code, out, err) == (65, "", f"ppkit: {name}=49 out of [0, 49)\n")


@pytest.mark.parametrize("cmd", ["field-info", "check", "sweep", "decompose", "directions"])
def test_a_u_out_of_range_is_named(capsys, cmd):
    point = [] if cmd == "field-info" else ["--theorem", "3.6"]
    if cmd in ("check", "decompose", "directions"):
        point += ["--delta", "1", "--gamma", "1"]
    code, out, err = run_cli(capsys, cmd, "--p", "3", "--m", "2", "--u", "9", *point)
    assert (code, out, err) == (65, "", "ppkit: u=9 out of [0, 9)\n")


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


def _value(flag):
    """Values of a flag that do not start with '-': mostly well-formed."""
    if flag.choices is not None:
        good = st.sampled_from(flag.choices)
    elif flag.type is int:
        good = st.integers(0, 60).map(str)
    else:
        good = st.sampled_from(["3.6", "3.14", "x.jsonl"])
    bad = st.sampled_from(["", " -3", "+4", "1.5", "x", "3 4", "٣"]) | st.text(max_size=4).filter(
        lambda v: not v.startswith("-"))
    return st.integers(0, 9).flatmap(lambda k: bad if k == 0 else good)


@st.composite
def _argv(draw):
    """A subcommand and its flags as the grammar declares them, then up to
    two corruptions; (argv, whether it was corrupted)."""
    grammar = _grammar()
    cmd = draw(st.sampled_from(list(grammar)))
    _, flags = grammar[cmd]
    names = [n for n, f in flags.items() if f.required or draw(st.booleans())]
    if "--delta" in names and "--trdelta" in names:
        names.remove(draw(st.sampled_from(["--delta", "--trdelta"])))
    names = draw(st.permutations(names))
    pairs = [[name, draw(_value(flags[name]))] for name in names]
    corruptions = draw(st.lists(st.sampled_from([
        "unknown", "repeat", "missing-value", "value", "equals", "help", "both-deltas", "drop",
        "empty",
    ]), max_size=2))
    argv = [cmd, *(a for pair in pairs for a in pair)]
    for kind in corruptions:
        if kind == "unknown":
            argv[1:1] = [draw(st.sampled_from(["--bogus", "--gamma-d", "--P", "-p", "--"])), "1"]
        elif kind == "repeat":
            name = draw(st.sampled_from(list(flags)))
            argv += [name, draw(_value(flags[name]))]
        elif kind == "missing-value" and len(argv) > 1:
            del argv[draw(st.integers(1, len(argv) - 1))]
        elif kind == "value" and len(argv) > 1:
            argv[draw(st.integers(1, len(argv) - 1))] = draw(st.sampled_from(
                ["-1", "x", "", "99999999999999999999", "bogus", "--theorem", "1e3"]))
        elif kind == "equals" and len(argv) > 2:
            at = draw(st.integers(1, len(argv) - 2))
            argv[at:at + 2] = [f"{argv[at]}={argv[at + 1]}"]
        elif kind == "help":
            argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["-h", "--help"])))
        elif kind == "both-deltas" and "--delta" in flags:
            argv += ["--delta", "1", "--trdelta", "2"]
        elif kind == "drop" and len(argv) > 2:
            at = draw(st.integers(1, len(argv) - 2))
            del argv[at:at + 2]
        elif kind == "empty":
            argv = []
    return argv, bool(corruptions)


_POINT = "check --p 3 --m 1 --theorem 3.14 --gamma 1"


@settings(max_examples=300, deadline=None)
@given(_argv())
@example(([], True))
@example(([*_POINT.split(), "--delta", "1", "--trdelta", "2"], True))
@example(([*_POINT.split(), "--p", "3"], True))
@example(([*_POINT.split(), "--delta"], True))
@example(([*_POINT.split(), "--delta", "-1"], True))
@example(([*_POINT.split(), "--delta=1"], True))
@example(([*_POINT.split(), "-h"], True))
@example(([*_POINT.split(), "--bogus", "1"], True))
@example(("sweep --p 3 --m 1 --theorem 3.14 --format xml".split(), True))
@example(("field-info --p x --m 1".split(), True))
def test_reader_returns_what_argparse_returns(case):
    argv, corrupted = case
    got = _read_argv(list(argv))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            want = build_parser().parse_args(list(argv))
    except SystemExit:
        assert got is None, argv
        return
    if got is not None:
        assert vars(got) == vars(want), argv
        assert list(vars(got)) == list(vars(want))
    else:  # argv as the grammar declares it is the reader's to read
        assert corrupted, argv
