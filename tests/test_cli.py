import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qelab
from qelab import cli
from qelab.cli import main
from qelab.estimate import AdvantageEstimate


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_bytes()


def test_identical_seed_identical_bytes(tmp_path):
    args = ["game", "--game", "ind", "--scheme", "identity", "--n", "1",
            "--qubits", "1", "--exact", "--seed", "9"]
    code1, blob1 = run_cli(args, tmp_path, "a.json")
    code2, blob2 = run_cli(args, tmp_path, "b.json")
    assert code1 == code2 == 0
    assert blob1 == blob2
    sampled = ["game", "--game", "ind", "--scheme", "ske-prf", "--n", "2",
               "--qubits", "1", "--trials", "50", "--seed", "4"]
    _, blob3 = run_cli(sampled, tmp_path, "c.json")
    _, blob4 = run_cli(sampled, tmp_path, "d.json")
    assert blob3 == blob4


def test_game_reports_exact_advantage(tmp_path):
    code, blob = run_cli(
        ["game", "--game", "ind", "--scheme", "identity", "--n", "1", "--qubits", "1",
         "--exact", "--seed", "2"],
        tmp_path,
    )
    doc = json.loads(blob)
    assert code == 0
    row = doc["results"][0]
    assert row["advantage"] == 1.0 and row["exact"] is True
    assert doc["schema_version"] == 1


def test_unknown_game_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["game", "--game", "nope", "--scheme", "identity"])
    assert err.value.code == 2


def test_incompatible_bundle_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["game", "--game", "sem", "--scheme", "identity", "--adversary", "readout"])
    assert err.value.code == 2


_LISTED = json.loads(
    (Path(__file__).parent / "data" / "golden" / "list.json").read_text()
)["results"][2]["bundles"]


@pytest.mark.parametrize("mode", [[], ["--exact"]], ids=["sample", "exact"])
@pytest.mark.parametrize(
    "game, bundle",
    [(game, bundle) for game, bundles in _LISTED.items() for bundle in bundles],
)
def test_every_listed_bundle_runs(game, bundle, mode, capsys):
    assert main(["game", "--game", game, "--scheme", "ske-prf", "--adversary", bundle,
                 "--n", "2", "--qubits", "1", "--trials", "20", "--seed", "7", *mode]) == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["roles"] == bundle


def test_no_command_prints_help():
    assert main([]) == 2


def test_list_outputs_registries(capsys):
    assert main(["list"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert any("schemes" in row for row in doc["results"])
    with pytest.raises(SystemExit) as err:
        main(["--list"])
    assert err.value.code == 2


def test_correctness_pass_and_fail(tmp_path):
    code, blob = run_cli(
        ["correctness", "--scheme", "ske-prf", "--n", "2", "--qubits", "1",
         "--keys", "3", "--seed", "3"],
        tmp_path,
    )
    assert code == 0 and json.loads(blob)["pass"] is True
    code, blob = run_cli(
        ["correctness", "--scheme", "ske-prf-skipdec", "--n", "2", "--qubits", "1",
         "--keys", "4", "--seed", "3"],
        tmp_path,
    )
    doc = json.loads(blob)
    assert code == 1 and doc["pass"] is False
    worst = max(r.get("choi_distance", 0.0) for r in doc["results"])
    assert worst >= 0.5


def test_correctness_embeds_serialization_fixture(tmp_path):
    code, blob = run_cli(
        ["correctness", "--scheme", "pke-towp", "--n", "2", "--qubits", "1",
         "--keys", "2", "--seed", "5"],
        tmp_path,
    )
    doc = json.loads(blob)
    fixture = [r for r in doc["results"] if r.get("fixture") == "ciphertext-serialization"]
    assert fixture and fixture[0]["pass"] is True
    assert "tag_b64" in fixture[0]["ciphertext"]


def test_qotp_mix_battery_and_pad_table(tmp_path):
    code, blob = run_cli(["qotp-mix", "--qubits", "1", "--seed", "6"], tmp_path)
    doc = json.loads(blob)
    assert code == 0 and doc["pass"] is True
    mixing = [r for r in doc["results"] if "state" in r]
    assert len(mixing) >= 5
    assert all(r["distance_from_mixed"] <= 1e-10 for r in mixing)
    pads = {r["single_pad"]: r["distance_from_mixed"] for r in doc["results"] if "single_pad" in r}
    assert pads["00"] == 0.5 and pads["01"] == 0.5


def test_qotp_mix_empty_battery(tmp_path):
    code, blob = run_cli(
        ["qotp-mix", "--qubits", "2", "--seed", "6", "--battery", "none"], tmp_path
    )
    doc = json.loads(blob)
    assert code == 0 and doc["results"] == [] and doc["pass"] is True


@pytest.mark.parametrize("qubits", ["4", "40"])
def test_qotp_mix_above_the_cap_is_refused_before_any_state_is_built(
    monkeypatch, capsys, qubits
):
    def no_state(*args):
        raise AssertionError("qotp-mix built a state before refusing")

    monkeypatch.setattr(cli, "maximally_mixed", no_state)
    monkeypatch.setattr(cli, "_state_battery", no_state)
    for battery in ("default", "none"):
        with pytest.raises(SystemExit) as err:
            main(["qotp-mix", "--qubits", qubits, "--battery", battery])
        assert err.value.code == 2
        assert f"covers at most 3 qubits, got {qubits}" in capsys.readouterr().err


def test_reduce_sem_to_ind_exact(tmp_path):
    code, blob = run_cli(
        ["reduce", "--reduction", "sem-to-ind", "--scheme", "identity", "--n", "1",
         "--qubits", "1", "--exact", "--seed", "7"],
        tmp_path,
    )
    doc = json.loads(blob)
    assert code == 0
    assert doc["results"][0]["identity_holds"] is True


def test_reduce_qotp_to_prg_exact(tmp_path):
    code, blob = run_cli(
        ["reduce", "--reduction", "qotp-to-prg", "--n", "2", "--qubits", "1",
         "--exact", "--seed", "8"],
        tmp_path,
    )
    doc = json.loads(blob)
    assert code == 0
    stage = {r["stage"]: r for r in doc["results"]}
    assert stage["constant-generator"]["p_ideal"] == 0.5
    assert stage["uniform-arm-half"]["holds"] is True


def _exact_estimate(p_real, p_ideal):
    return AdvantageEstimate(
        p_real=float(p_real), p_ideal=float(p_ideal), advantage=float(abs(p_real - p_ideal)),
        ci_halfwidth=0.0, trials=0, exact=True, p_real_exact=p_real, p_ideal_exact=p_ideal,
    )


@pytest.mark.parametrize("excess, code", [(Fraction(1, 10**13), 1), (Fraction(0), 0)])
def test_reduce_ind_to_sem_exact_bound_has_no_slack(tmp_path, monkeypatch, excess, code):
    # The semantic advantage exceeds the distinguishing one by less than
    # 1e-12: an exact check must still report the violation.
    ind = _exact_estimate(Fraction(1, 2), Fraction(1, 4))
    sem = _exact_estimate(Fraction(1, 2) + excess, Fraction(1, 4))
    monkeypatch.setattr(cli, "ind_to_sem_pipeline", lambda *args: {"sem": sem, "ind": ind})
    got, blob = run_cli(["reduce", "--reduction", "ind-to-sem", "--exact", "--seed", "7"],
                        tmp_path)
    check = json.loads(blob)["results"][-1]
    assert got == code
    assert check == {"stage": "bound-check", "bound": 0.25, "holds": code == 0}


def test_reduce_exact_above_the_cap_is_refused_before_any_sampled_stage(monkeypatch, capsys):
    def no_stage(*args):
        raise AssertionError("cca1-to-prf ran a sampled stage before refusing")

    monkeypatch.setattr(cli, "run_ind_prime", no_stage)
    with pytest.raises(SystemExit) as err:
        main(["reduce", "--reduction", "cca1-to-prf", "--exact", "--qubits", "4"])
    assert err.value.code == 2
    assert "exact mode supports at most 3 plaintext qubits, got 4" in capsys.readouterr().err


def test_reduce_cca1_needs_prf_scheme():
    with pytest.raises(SystemExit) as err:
        main(["reduce", "--reduction", "cca1-to-prf", "--scheme", "identity"])
    assert err.value.code == 2


def test_csv_mirror_written(tmp_path):
    out = tmp_path / "r.json"
    csv_path = tmp_path / "r.csv"
    code = main(
        ["qotp-mix", "--qubits", "1", "--seed", "10", "--out", str(out),
         "--csv", str(csv_path)]
    )
    assert code == 0
    text = csv_path.read_text()
    assert text.splitlines()[0].startswith("command,")
    assert "qotp-mix" in text


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_unwritable_report_path_is_usage_error(tmp_path, capsys, flag):
    target = tmp_path / "missing" / "report"
    with pytest.raises(SystemExit) as err:
        main(["game", "--game", "ind", "--scheme", "ske-prf", "--n", "2", "--qubits", "1",
              "--exact", "--seed", "7", flag, str(target)])
    assert err.value.code == 2
    assert str(target) in capsys.readouterr().err
    assert not target.parent.exists()


def test_correctness_on_undecryptable_scheme_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["correctness", "--scheme", "pke-uniformpad", "--n", "1",
              "--qubits", "1", "--keys", "1", "--seed", "2"])
    assert err.value.code == 2


_GAME = ["game", "--game", "ind", "--scheme", "identity", "--n", "1"]
_CORRECTNESS = ["correctness", "--scheme", "identity", "--n", "1", "--qubits", "1"]
_CORRECTNESS_SKE = ["correctness", "--scheme", "ske-prf", "--n", "2", "--keys", "1"]
_QOTP_TO_PRG = ["reduce", "--reduction", "qotp-to-prg"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (_GAME + ["--trials", "0"], "trials must be at least 1"),
        (_GAME + ["--seed", "-1"], "seed must be a 64-bit unsigned integer"),
        (_GAME + ["--qubits", "4", "--exact"], "exact mode supports at most 3 plaintext qubits"),
        (_CORRECTNESS + ["--keys", "0"], "keys must be at least 1"),
        (_CORRECTNESS + ["--keys", "-3"], "keys must be at least 1"),
        (_CORRECTNESS_SKE + ["--qubits", "6"], "correctness supports at most 5 qubits, got 6"),
        (_CORRECTNESS_SKE + ["--qubits", "9"], "correctness supports at most 5 qubits, got 9"),
        (["qotp-mix", "--qubits", "-1"], "qotp-mix needs at least 1 qubit, got -1"),
        (["qotp-mix", "--qubits", "0"], "qotp-mix needs at least 1 qubit, got 0"),
        (["qotp-mix", "--qubits", "4"], "pad average covers at most 3 qubits, got 4"),
        (["qotp-mix", "--qubits", "40", "--battery", "none"],
         "pad average covers at most 3 qubits, got 40"),
        (_QOTP_TO_PRG + ["--n", "-3"], "security parameter -3 outside 1..12"),
        (_QOTP_TO_PRG + ["--n", "0"], "security parameter 0 outside 1..12"),
        (_QOTP_TO_PRG + ["--n", "13", "--exact"], "security parameter 13 outside 1..12"),
        (_QOTP_TO_PRG + ["--qubits", "0"], "--qubits must be at least 1, got 0"),
        (_QOTP_TO_PRG + ["--qubits", "-1"], "--qubits must be at least 1, got -1"),
        (_CORRECTNESS + ["--keys", "1", "--exact"], "unrecognized arguments: --exact"),
        (_CORRECTNESS + ["--keys", "1", "--trials", "5"], "unrecognized arguments: --trials 5"),
        (["game", "--game", "ind", "--scheme", "qotp", "--qubits", "11", "--trials", "1"],
         "a dense state holds at most 10 qubits, got 11"),
        (["game", "--game", "ind", "--scheme", "qotp", "--qubits", "64", "--trials", "1"],
         "a dense state holds at most 10 qubits, got 64"),
        (["game", "--game", "ind", "--scheme", "ske-prf", "--qubits", "30", "--trials", "1"],
         "a dense state holds at most 10 qubits, got 30"),
        (_QOTP_TO_PRG + ["--qubits", "30", "--trials", "1"],
         "a dense state holds at most 10 qubits, got 30"),
    ],
    ids=["trials-0", "seed-negative", "exact-4-qubits", "keys-0", "keys-negative",
         "correctness-6-qubits", "correctness-9-qubits", "qotp-mix-qubits-negative",
         "qotp-mix-qubits-0", "qotp-mix-qubits-4", "qotp-mix-qubits-40-no-battery",
         "qotp-to-prg-n-negative", "qotp-to-prg-n-0",
         "qotp-to-prg-n-13-exact", "qotp-to-prg-qubits-0", "qotp-to-prg-qubits-negative",
         "correctness-exact", "correctness-trials", "qotp-qubits-11", "qotp-qubits-64",
         "ske-prf-qubits-30", "qotp-to-prg-qubits-30"],
)
def test_out_of_range_parameter_is_usage_error(argv, message):
    src = Path(qelab.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "qelab.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


def test_the_shared_parser_carries_nothing_between_calls(tmp_path, monkeypatch, capsysbinary):
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.chdir(tmp_path)
    argv = ["game", "--game", "ind", "--scheme", "identity", "--n", "1", "--qubits", "1",
            "--exact", "--seed", "7"]
    golden = Path(__file__).parent / "data" / "golden" / "game-ind-identity-exact.json"
    golden = golden.read_bytes()

    assert main(argv + ["--out", "report.json", "--csv", "report.csv"]) == 0
    assert capsysbinary.readouterr().out == b""
    assert (tmp_path / "report.json").read_bytes() == golden
    for path in tmp_path.iterdir():
        path.unlink()
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == golden
    assert list(tmp_path.iterdir()) == []

    for argv_before, code in ([["game", "--game", "nope"], 2], [["game", "--help"], 0]):
        with pytest.raises(SystemExit) as err:
            main(argv_before)
        assert err.value.code == code
        capsysbinary.readouterr()
        assert main(argv) == 0
        assert capsysbinary.readouterr().out == golden


def test_python_dash_m_runs_the_cli():
    src = Path(qelab.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "qelab", "list"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == (Path(__file__).parent / "data" / "golden" / "list.json").read_bytes()
