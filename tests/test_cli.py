import json
import subprocess
import sys

import pytest

from ppkit import sweep as sweep_mod
from ppkit.cli import main


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


def test_sweep_stdout_and_exit(capsys, tmp_path):
    out_file = tmp_path / "s.jsonl"
    code, out, err = run_cli(
        capsys, "sweep", "--p", "3", "--m", "1", "--theorem", "3.14",
        "--out", str(out_file),
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


def test_directions(capsys):
    code, out, _ = run_cli(
        capsys, "directions", "--p", "3", "--m", "1", "--theorem", "3.2",
        "--delta", "5", "--gamma", "2",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["complementary"] is True
    assert rep["direction_count"] + rep["permuting_count"] == 9


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "ppkit.cli", "sweep", "--p", "3"],
        capture_output=True,
    )
    assert proc.returncode == 64


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
            capture_output=True,
        )
        assert proc.returncode == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "text",
    ['{"tid": "3.14", "p": 3, "m": 1, "wokers": 2}', '{"tid": "3.14", "p": 3,', "[1, 2]"],
    ids=["unknown-key", "malformed-json", "not-an-object"],
)
def test_sweep_rejects_bad_plan(capsys, tmp_path, text):
    plan = tmp_path / "plan.json"
    plan.write_text(text)
    code, out, err = run_cli(
        capsys, "sweep", "--p", "3", "--m", "1", "--theorem", "3.14",
        "--plan", str(plan),
    )
    assert code == 65 and out == ""
    assert err.startswith("ppkit: ") and err.count("\n") == 1


def test_sweep_flags_override_the_plan(capsys, tmp_path, monkeypatch):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(
        {"tid": "3.14", "p": 3, "m": 1, "probe_hypotheses": True, "workers": 2}
    ))
    seen = []
    run_plan = sweep_mod.run_plan
    monkeypatch.setattr(sweep_mod, "run_plan", lambda plan: seen.append(plan) or run_plan(plan))
    code, out, err = run_cli(
        capsys, "sweep", "--p", "3", "--m", "1", "--theorem", "3.14",
        "--plan", str(plan), "--gamma-domain", "stated", "--workers", "1",
    )
    assert code == 0
    assert seen[0].probe_hypotheses is False and seen[0].workers == 1
    assert json.loads(err)["records"] == 18 == len(out.strip().split("\n"))


@pytest.mark.parametrize(
    "argv",
    [
        "check --p 3 --m 1 --theorem 3.14 --delta 99 --gamma 1",
        "check --p 3 --m 1 --theorem 3.14 --delta 1 --gamma 99",
        "check --p 3 --m 1 --theorem 3.14 --delta 1 --gamma -1",
        "check --p 2 --m 2 --theorem 4.1 --d 1 --gamma 99",
        "check --p 3 --m 1 --theorem 3.2 --delta -1 --gamma 1",
        "check --p 3 --m 2 --theorem 3.13 --delta 1 --gamma 1",
        "decompose --p 3 --m 1 --theorem 3.14 --delta 99",
        "directions --p 3 --m 1 --theorem 3.14 --delta 99",
        "field-info --p 3 --m 1 --u 1",
        "sweep --p 3 --m 1 --theorem 3.13",
    ],
)
def test_bad_point_parameters_exit_65(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 65 and out == ""
    assert err.startswith("ppkit: ") and err.count("\n") == 1


def test_sweep_plan_without_tid_takes_the_flag(capsys, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"p": 3, "m": 1}))
    code, out, err = run_cli(
        capsys, "sweep", "--p", "3", "--m", "1", "--theorem", "3.14",
        "--plan", str(plan),
    )
    assert code == 0
    assert json.loads(err)["records"] == 18 == len(out.strip().split("\n"))


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
