import argparse
import dataclasses
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from segreid import cli
from segreid.certificates import certificate_from_dict, validate_certificate_dict
from segreid.cli import ENV_STORE, derive_seed, main, sweep_ks
from segreid.exactlin import DEFAULT_PRIMES
from segreid.segre import ProductShape
from segreid.terracini import expected_dim

P1 = str(DEFAULT_PRIMES[0])
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out.splitlines()


def run_python(*args):
    """A fresh interpreter that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


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


def test_widened_seeds_stay_below_2_64():
    # SplitMix64 takes a seed mod 2**64, so seeds 2**64 and 2**64 + 1
    # would replay seeds 0 and 1 while the certificates claimed others
    certs, summary, code = cli.run_probe(ProductShape.binary(4), 2, primes=(65521,), seed=2**64 - 1)
    seeds = {cert.seed for cert in certs}
    assert all(s < 2**64 for s in seeds)
    assert seeds == {2**64 - 1, 0, 1}
    assert code == 1
    assert summary["defect_status"] == "defective (computational evidence)"


def test_run_probe_refuses_a_seed_its_stream_would_not_use():
    # the CLI's --seed refuses these too, and run_probe before any probe
    for seed in (-1, 2**64, 1.7):
        with pytest.raises(ValueError, match=r"must be an integer in \[0, 2\*\*64\)"):
            cli.run_probe(ProductShape.binary(4), 2, primes=(65521,), seed=seed)


def unwalled(certs):
    # the certificates' JSON lines without their wall times
    return [dataclasses.replace(cert, wall_time_s=None).json_line() for cert in certs]


@pytest.mark.parametrize("m, k", [(3, 1), (4, 2), (5, 4)])
def test_numpy_pins_give_the_certificates_of_python_ints(m, k):
    # m=3 takes the dimension probe, m=4 and m=5 the tangency probe, and
    # m=4 widens to the 3x3 grid, whose seeds seed + i overflowed a
    # numpy seed; every certificate must be written as JSON
    shape = ProductShape.binary(m)
    want = cli.run_probe(shape, k, trials=2, primes=(65521,), seed=2**64 - 2)
    got = cli.run_probe(shape, np.int64(k), trials=np.int64(2), primes=(np.int64(65521),),
                        seed=np.uint64(2**64 - 2))
    assert unwalled(got[0]) == unwalled(want[0])
    assert json.dumps(got[1]) == json.dumps(want[1]) and got[2] == want[2]


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


def test_store_below_a_regular_file_exits_2_before_any_work(tmp_path, capsys):
    clash = tmp_path / "occupied"
    clash.write_text("not a directory")
    with pytest.raises(SystemExit) as exc:
        main(["probe", "--binary", "3", "-k", "1", "--primes", P1,
              "--store", str(clash / "sub")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: segreid probe")
    assert "argument --store" in captured.err
    assert sorted(tmp_path.iterdir()) == [clash]


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

    # the closed form against the definition: every k >= 1 with expected_dim < r
    shapes = [ProductShape.binary(m) for m in range(2, 15)] + [
        ProductShape(dims)
        for n in (2, 3, 4)
        for dims in itertools.product(range(1, 5), repeat=n)
    ]
    for shape in shapes:
        subcritical = list(
            itertools.takewhile(
                lambda k: expected_dim(shape, k) < shape.ambient_dim, itertools.count(1)
            )
        )
        assert sweep_ks(shape) == subcritical
        for max_k in (1, 2, 5):
            assert sweep_ks(shape, max_k) == [k for k in subcritical if k <= max_k]


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


def test_emit_rejects_a_tampered_certificate_and_prints_nothing(tmp_path, capsys):
    cert = cli.run_probe(ProductShape.binary(5), 4, primes=(DEFAULT_PRIMES[0],))[0][0]
    tampered = dataclasses.replace(cert, cited=("anything",))
    with pytest.raises(ValueError, match="^cited .*, recomputed "):
        cli._emit(tampered, str(tmp_path))
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


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
        ["bounds", "-m", "5.."],
        ["bounds", "-m", "..6"],
        ["bounds", "-m", "a..b"],
    ],
)
def test_bad_arguments_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("text", ["5..", "..6", "a..b", "3..4..5"])
def test_bad_m_range_names_value_and_form(text, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "-m", text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument -m/--factors: expected M or A..B, got %r" % text in err


@pytest.mark.parametrize(
    "option, text, form",
    [
        ("--primes", "", "P1,P2,..."),
        ("--primes", "3,", "P1,P2,..."),
        ("--shape", "1,,2", "N1,N2,..."),
        ("--shape", "a,1", "N1,N2,..."),
    ],
)
def test_bad_integer_list_names_value_and_form(option, text, form, capsys):
    argv = ["probe", "-k", "1", option, text]
    if option == "--primes":
        argv += ["--binary", "4"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument %s: expected %s, got %r" % (option, form, text) in err


@pytest.mark.parametrize("text, rows", [(" 3 .. 5", 3), ("3..+5", 3), ("1_0", 1)])
def test_m_range_accepts_what_int_accepts(text, rows, capsys):
    code, lines = run(capsys, "bounds", "-m", text, "--format", "json")
    assert code == 0
    assert len(lines) == rows


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
        (["sweep", "-m", "5", "--max-k", "0"], "--max-k"),
        (["sweep", "-m", "5", "--max-k", "-3"], "--max-k"),
        (["probe", "--binary", "3", "-k", "1", "--primes", "65521,65521"], "--primes"),
        (["sweep", "-m", "4", "--primes", "65521,65521"], "--primes"),
        (["sweep", "-m", "4..5", "--csv", "no-such-directory/t.csv"], "--csv"),
        (["sweep", "-m", "4..5", "--csv", "."], "--csv"),
        # SplitMix64 would take it mod 2**64, as seed 0
        (["probe", "--binary", "5", "-k", "3", "--seed", str(1 << 64)], "--seed"),
    ],
)
def test_out_of_range_values_exit_2_before_any_work(argv, option, tmp_path, capsys):
    store = tmp_path / "store"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--store", str(store)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: segreid %s " % argv[0])
    assert "argument %s" % option in captured.err
    assert not store.exists()


def test_console_script_entry_point():
    proc = run_python("-m", "segreid", "bounds", "-m", "6")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("6,8,4,3,5,")


# Runs that print only valid certificates, then one malformed certificate.
IMPORT_SET = """
import json, sys
import segreid.cli
segreid.cli.build_parser()
for argv in json.loads(sys.argv[1]):
    segreid.cli.main(argv)
print(json.dumps([m for m in json.loads(sys.argv[2]) if m in sys.modules]))
try:
    segreid.cli.validate_certificate_dict({"k": 0})
except ValueError:
    print(json.dumps([m for m in json.loads(sys.argv[2]) if m in sys.modules]))
"""


def test_valid_runs_import_neither_jsonschema_nor_the_process_pool():
    runs = [
        ["probe", "--binary", "5", "-k", "1", "--primes", "2147483647"],
        ["reproduce", "m5k4"],
        ["sweep", "-m", "4..5", "--jobs", "1", "--primes", "2147483647"],
    ]
    unused = ["jsonschema", "concurrent.futures.process", "multiprocessing"]
    proc = run_python("-c", IMPORT_SET, json.dumps(runs), json.dumps(unused))
    assert proc.returncode == 0, proc.stderr
    loaded, rejected = proc.stdout.splitlines()[-2:]
    assert json.loads(loaded) == []
    # a rejected certificate raises ValueError, and still imports none of them
    assert json.loads(rejected) == []


PINNED_OPTIONS = {
    "bounds": [
        (("--format",), "format", "'csv'", False, None, ("csv", "json")),
        (("-m", "--factors"), "factors", "None", True, "A..B", None),
    ],
    "probe": [
        (("--binary",), "shape", "None", False, "M", None),
        (("--primes",), "primes", repr(DEFAULT_PRIMES), False, "P1,P2,...", None),
        (("--seed",), "seed", "0", False, None, None),
        (("--shape",), "shape", "None", False, "N1,N2,...", None),
        (("--store",), "store", "''", False, None, None),
        (("--trials",), "trials", "3", False, None, None),
        (("-k",), "k", "None", True, None, None),
    ],
    "sweep": [
        (("--csv",), "csv", "None", False, "PATH", None),
        (("--jobs",), "jobs", "1", False, None, None),
        (("--max-k",), "max_k", "None", False, None, None),
        (("--primes",), "primes", repr(DEFAULT_PRIMES), False, "P1,P2,...", None),
        (("--seed",), "seed", "0", False, None, None),
        (("--store",), "store", "''", False, None, None),
        (("--trials",), "trials", "3", False, None, None),
        (("-m", "--factors"), "factors", "None", True, "A..B", None),
    ],
    "reproduce": [
        ((), "case", "None", True, None, ("bounds-table", "m5k4", "m6table")),
        (("--store",), "store", "''", False, None, None),
    ],
}


def test_subcommand_options_are_pinned(monkeypatch):
    # a new CLI option, or a changed default, metavar or choice, edits this table
    monkeypatch.delenv(ENV_STORE, raising=False)
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {}
    for name, sub in commands.choices.items():
        got[name] = sorted(
            (
                tuple(a.option_strings),
                a.dest,
                repr(a.default),
                a.required,
                a.metavar,
                None if a.choices is None else tuple(a.choices),
            )
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        )
    assert got == PINNED_OPTIONS
