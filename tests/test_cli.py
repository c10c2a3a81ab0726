import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from segreid import cli
from segreid.certificates import certificate_from_dict, validate_certificate_dict
from segreid.cli import ENV_STORE, derive_seed, main, sweep_ks
from segreid.exactlin import DEFAULT_PRIMES
from segreid.segre import ProductShape

P1 = str(DEFAULT_PRIMES[0])
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out.splitlines()


def parse(lines):
    return [json.loads(line) for line in lines]


def cert_lines(lines):
    return [d for d in parse(lines) if "type" not in d]


def test_bounds_csv_m10(capsys):
    code, lines = run(capsys, "bounds", "-m", "10")
    assert code == 0
    assert lines[0].startswith("m,k_max,")
    assert lines[1].startswith("10,92,50,15,22,")


def test_bounds_json_range(capsys):
    code, lines = run(capsys, "bounds", "-m", "6..8", "--format", "json")
    assert code == 0
    rows = parse(lines)
    assert [r["m"] for r in rows] == [6, 7, 8]
    assert rows[0]["k_max"] == 8
    assert "k=9" in rows[0]["note"]
    assert "k=9" not in rows[1]["note"]


def test_probe_emits_valid_certificates(capsys):
    code, lines = run(
        capsys, "probe", "--binary", "5", "-k", "4", "--primes", P1, "--seed", "0"
    )
    assert code == 0
    certs = cert_lines(lines)
    assert len(certs) == 1
    for d in certs:
        validate_certificate_dict(d)
        assert d["verdict"] == "KnownExceptionSecantOrder2"
    summary = parse(lines)[-1]
    assert summary["type"] == "summary"
    assert summary["verdict"] == "KnownExceptionSecantOrder2"


def test_probe_defect_escalates_and_exits_1(capsys):
    code, lines = run(
        capsys, "probe", "--binary", "4", "-k", "2", "--primes", P1, "--seed", "0"
    )
    assert code == 1
    certs = cert_lines(lines)
    # one starting cell widened to the full 3x3 grid
    assert len(certs) == 9
    assert {d["prime"] for d in certs} == set(DEFAULT_PRIMES)
    assert {d["seed"] for d in certs} == {0, 1, 2}
    assert all(d["observed_dim"] == 13 for d in certs)
    summary = parse(lines)[-1]
    assert summary["defect_status"] == "defective (computational evidence)"


def test_probe_general_shape(capsys):
    code, lines = run(
        capsys, "probe", "--shape", "1,2", "-k", "1", "--primes", P1
    )
    assert code == 0
    certs = cert_lines(lines)
    assert certs[0]["shape"] == [1, 2]
    assert certs[0]["expected_dim"] == 5
    assert certs[0]["observed_dim"] == 5


def test_probe_store_flag_and_env(tmp_path, capsys, monkeypatch):
    flagged = tmp_path / "flagged"
    code, lines = run(
        capsys, "probe", "--binary", "5", "-k", "4", "--primes", P1,
        "--store", str(flagged),
    )
    assert code == 0
    files = list(flagged.iterdir())
    assert len(files) == 1
    stored = json.loads(files[0].read_text())
    validate_certificate_dict(stored)
    assert files[0].name == (
        "cert-%s.json" % certificate_from_dict(stored).digest()[:16]
    )

    env_dir = tmp_path / "from-env"
    monkeypatch.setenv(ENV_STORE, str(env_dir))
    code, lines = run(capsys, "probe", "--binary", "5", "-k", "4", "--primes", P1)
    assert code == 0
    assert len(list(env_dir.iterdir())) == 1


def test_store_path_that_is_a_file_is_rejected(tmp_path, capsys, monkeypatch):
    clash = tmp_path / "occupied"
    clash.write_text("not a directory")
    with pytest.raises(SystemExit) as exc:
        main(["probe", "--binary", "5", "-k", "4", "--primes", P1,
              "--store", str(clash)])
    assert exc.value.code == 2
    assert "is not a directory" in capsys.readouterr().err

    # same guard covers the environment variable route
    monkeypatch.setenv(ENV_STORE, str(clash))
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "m5k4"])
    assert exc.value.code == 2


def test_derive_seed_is_stable_and_cell_specific():
    s = ProductShape.binary(6)
    a = derive_seed(0, s, 3, DEFAULT_PRIMES[0])
    assert a == derive_seed(0, s, 3, DEFAULT_PRIMES[0])
    assert a != derive_seed(0, s, 4, DEFAULT_PRIMES[0])
    assert a != derive_seed(0, s, 3, DEFAULT_PRIMES[1])
    assert a != derive_seed(1, s, 3, DEFAULT_PRIMES[0])
    assert 0 <= a < 2**64


def test_sweep_ks_subcritical_range():
    assert sweep_ks(ProductShape.binary(5)) == [1, 2, 3, 4]
    assert sweep_ks(ProductShape.binary(6)) == [1, 2, 3, 4, 5, 6, 7, 8]
    assert sweep_ks(ProductShape.binary(6), max_k=3) == [1, 2, 3]
    assert sweep_ks(ProductShape.binary(2)) == []


def test_sweep_emits_sorted_valid_cells(capsys):
    code, lines = run(capsys, "sweep", "-m", "5..6", "--primes", P1)
    assert code == 0
    certs = cert_lines(lines)
    keys = [(len(d["shape"]), d["k"], d["prime"]) for d in certs]
    assert keys == sorted(keys)
    assert len(certs) == 12
    for d in certs:
        validate_certificate_dict(d)
        assert d["wall_time_s"] is None
    summary = parse(lines)[-1]
    assert summary["type"] == "sweep_summary"
    assert summary["cells"] == 12
    assert summary["counter_evidence"] == 0


def test_sweep_rerun_is_byte_identical(capsys):
    _, first = run(capsys, "sweep", "-m", "5..5", "--primes", P1, "--seed", "7")
    _, second = run(capsys, "sweep", "-m", "5..5", "--primes", P1, "--seed", "7")
    assert first == second


def test_sweep_defective_cell_sets_exit_code(capsys):
    code, lines = run(capsys, "sweep", "-m", "4..4", "--primes", P1)
    assert code == 1
    certs = cert_lines(lines)
    verdicts = {d["k"]: d["verdict"] for d in certs}
    assert verdicts[2] == "DefectCandidate"
    summary = parse(lines)[-1]
    assert summary["counter_evidence"] >= 1


def test_sweep_cell_error_carries_traceback(capsys, monkeypatch):
    real = cli.probe_cell

    def flaky(shape, k, trials, prime, seed):
        if k == 2:
            raise RuntimeError("injected failure")
        return real(shape, k, trials, prime, seed)

    monkeypatch.setattr(cli, "probe_cell", flaky)
    code = main(["sweep", "-m", "5..5", "--primes", P1, "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert parse(captured.out.splitlines())[-1]["errors"] == 1
    (err,) = parse(captured.err.splitlines())
    assert err["cell"] == [[1] * 5, 2, DEFAULT_PRIMES[0]]
    assert err["error"] == "RuntimeError: injected failure"
    assert err["traceback"].startswith("Traceback (most recent call last)")
    assert "in flaky" in err["traceback"]
    assert err["traceback"].rstrip().endswith("RuntimeError: injected failure")


def test_sweep_csv_table(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code, lines = run(
        capsys, "sweep", "-m", "5..5", "--primes", P1, "--csv", str(out)
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0].startswith("m,k,prime,seed,")
    assert len(rows) == 1 + 4


def test_sweep_parallel_matches_serial(capsys):
    _, serial = run(capsys, "sweep", "-m", "5..5", "--primes", P1, "--jobs", "1")
    _, parallel = run(capsys, "sweep", "-m", "5..5", "--primes", P1, "--jobs", "2")
    assert serial == parallel


def test_reproduce_m5k4(capsys):
    code, lines = run(capsys, "reproduce", "m5k4")
    assert code == 0
    final = parse(lines)[-1]
    assert final == {**final, "type": "reproduce", "case": "m5k4", "ok": True}


def test_reproduce_m6table(capsys):
    code, lines = run(capsys, "reproduce", "m6table")
    assert code == 0
    certs = cert_lines(lines)
    assert [d["k"] for d in certs] == list(range(1, 10))
    assert [d["verdict"] for d in certs] == (
        ["IdentifiableCertified"] * 8 + ["Undetermined"]
    )
    assert [d["propagated_from_k"] for d in certs] == [8] * 7 + [None, None]
    assert certs[8]["notes"]
    final = parse(lines)[-1]
    assert final["ok"] is True
    assert final["k8_coranks"] == [0] * 9


def test_reproduce_bounds_table(capsys):
    code, lines = run(capsys, "reproduce", "bounds-table")
    assert code == 0
    final = parse(lines)[-1]
    assert final["ok"] is True
    assert final["m10"] == [92, 50, 15, 22]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bounds"],
        ["bounds", "-m", "abc"],
        ["bounds", "-m", "9..6"],
        ["bounds", "-m", "1..3"],
        ["probe", "-k", "2"],
        ["probe", "--binary", "4", "--shape", "1,1", "-k", "1"],
        ["probe", "--binary", "4", "-k", "0"],
        ["probe", "--binary", "1", "-k", "1"],
        ["probe", "--binary", "4", "-k", "1", "--primes", "15"],
        ["probe", "--shape", "1", "-k", "1"],
        ["probe", "--binary", "4", "-k", "1", "--trials", "0"],
        ["sweep", "-m", "5..5", "--jobs", "0"],
        ["reproduce", "nosuchcase"],
    ],
)
def test_bad_arguments_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, option",
    [
        (["probe", "--binary", "3", "-k", "1", "--seed", "-1"], "--seed"),
        (["sweep", "-m", "4", "--seed", "-1"], "--seed"),
        (["probe", "--binary", "3", "-k", "-1"], "-k"),
        (["probe", "--binary", "3", "-k", "one"], "-k"),
        (["probe", "--binary", "3", "-k", "1", "--trials", "0"], "--trials"),
        (["sweep", "-m", "4", "--trials", "0"], "--trials"),
        (["sweep", "-m", "4", "--jobs", "0"], "--jobs"),
        (["probe", "--binary", "0", "-k", "1"], "--binary"),
    ],
)
def test_out_of_range_values_exit_2_before_any_work(argv, option, tmp_path, capsys):
    store = tmp_path / "store"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--store", str(store)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument %s" % option in captured.err
    assert not store.exists()


def test_console_script_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "segreid", "bounds", "-m", "6"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("6,8,4,3,5,")
