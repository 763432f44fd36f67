import json
import multiprocessing
import subprocess
import sys
import threading

import pytest

from tripcover import cli
from conftest import S6, fig4_doc, random_instance_doc, trapezoid_doc


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tripcover", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {}
    for name, doc in (
        ("fig2", trapezoid_doc(alpha=0.4)),
        ("fig2_a03", trapezoid_doc(alpha=0.3)),
        ("fig4", fig4_doc()),
        ("seed139", random_instance_doc(139)),
        ("bad_alpha", trapezoid_doc(alpha=1.5)),
    ):
        path = root / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = path
    broken = root / "broken.json"
    broken.write_text("{ not json")
    paths["broken"] = broken
    paths["root"] = root
    return paths


def test_solve_writes_result_document(files):
    out = files["root"] / "sol.json"
    proc = run_cli(
        "solve", "--instance", str(files["fig2"]), "--out", str(out),
        "--trace-res", "64", "--jobs", "1",
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["objective"] == 1.0
    assert set(doc["X1"]) == {"edge", "arc_length", "x", "y"}
    assert doc["covered"] == [[0, 1]]
    stats = doc["stats"]
    assert stats["segments"] == 8
    assert stats["restricted_problems"] == 36
    assert "omega_total" in stats
    assert "runtime_ms" not in stats  # volatile, only added with --timing


def test_solve_timing_flag_adds_runtime(files):
    out = files["root"] / "sol_timing.json"
    proc = run_cli(
        "solve", "--instance", str(files["fig2"]), "--out", str(out),
        "--trace-res", "64", "--jobs", "1", "--timing",
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["stats"]["runtime_ms"] > 0


def test_solve_invalid_instance_exit1_names_invariant(files):
    proc = run_cli("solve", "--instance", str(files["bad_alpha"]))
    assert proc.returncode == 1
    assert "alpha not in (0,1)" in proc.stderr


@pytest.mark.parametrize(
    "flag, value, name",
    [("--trace-res", "8", "trace_res"), ("--cov-tol", "nan", "cov_tol"), ("--jobs", "0", "jobs")],
)
def test_solve_parameter_out_of_range_exit1(files, flag, value, name):
    proc = run_cli("solve", "--instance", str(files["fig2"]), flag, value)
    assert proc.returncode == 1
    assert name in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9"])
@pytest.mark.parametrize(
    "command", [["oracle"], ["evaluate", "--x1", "0:1", "--x2", "1:1"]], ids=["oracle", "evaluate"]
)
def test_oracle_and_evaluate_cov_tol_out_of_range_exit1(files, command, value):
    # a NaN cov_tol covers nothing, so an unchecked run would print objective 0 and exit 0
    proc = run_cli(command[0], "--instance", str(files["fig4"]), *command[1:], f"--cov-tol={value}")
    assert proc.returncode == 1
    assert "cov_tol must be finite and >= 0" in proc.stderr and "Traceback" not in proc.stderr


def test_unknown_flag_exit1_with_usage(files):
    proc = run_cli("solve", "--instance", str(files["fig2"]), "--frobnicate")
    assert proc.returncode == 1
    assert "usage" in proc.stderr.lower()


def test_missing_file_is_io_error_exit2(files):
    proc = run_cli("solve", "--instance", str(files["root"] / "nope.json"))
    assert proc.returncode == 2


def test_malformed_json_exit1(files):
    proc = run_cli("solve", "--instance", str(files["broken"]))
    assert proc.returncode == 1
    assert "not valid JSON" in proc.stderr


def test_oracle_below_or_equal_to_solve(files):
    solve_out = files["root"] / "solve_f.json"
    oracle_out = files["root"] / "oracle_f.json"
    assert run_cli(
        "solve", "--instance", str(files["fig2"]), "--out", str(solve_out),
        "--trace-res", "64", "--jobs", "1",
    ).returncode == 0
    assert run_cli(
        "oracle", "--instance", str(files["fig2"]), "--out", str(oracle_out),
        "--grid-res", "120",
    ).returncode == 0
    solve_doc = json.loads(solve_out.read_text())
    oracle_doc = json.loads(oracle_out.read_text())
    assert oracle_doc["objective"] <= solve_doc["objective"]
    assert oracle_doc["grid_res"] == 120


def test_preprocess_dump(files):
    proc = run_cli("preprocess", "--instance", str(files["fig2"]))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["vertex_ids"] == [0, 1, 2, 3]
    assert len(doc["distance_matrix"]) == 4
    assert doc["distance_matrix"][0][2] == pytest.approx(5.0)
    assert len(doc["segments"]) == 8
    arcs = sorted(
        (b["edge"], b["arc_length"]) for b in doc["bottlenecks"]
    )
    assert arcs == [(1, 1.0), (1, 6.0), (2, 4.0), (3, 4.0)]
    assert len(doc["pair_classes"]) == 36
    assert {pc["type"] for pc in doc["pair_classes"]} == {1, 2}


def test_curves_csv_export(files):
    out = files["root"] / "curves.csv"
    proc = run_cli(
        "curves", "--instance", str(files["fig4"]), "--segments", "0,2",
        "--pair", "0,1", "--pair", "2,3", "--trace-res", "64",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "pair_i,pair_j,orientation,branch,polyline_id,vertex_index,x,y"
    groups = {tuple(line.split(",")[:4]) for line in lines[1:]}
    # pair (0,1) shows both branches of the forward boarding order
    assert ("0", "1", "12", "a") in groups
    assert ("0", "1", "12", "b") in groups
    assert ("2", "3", "21", "a") in groups


def test_curves_selector_mismatch_exit1(files):
    proc = run_cli(
        "curves", "--instance", str(files["fig4"]), "--segments", "0,2",
        "--pair", "4,5",
    )
    assert proc.returncode == 1
    assert "matches no O/D pair" in proc.stderr
    proc = run_cli(
        "curves", "--instance", str(files["fig4"]), "--segments", "80,90"
    )
    assert proc.returncode == 1
    assert "matches nothing" in proc.stderr


def test_evaluate_point_query(files):
    proc = run_cli(
        "evaluate", "--instance", str(files["fig2_a03"]),
        "--x1", "0:2.5", "--x2", "1:2.0",
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    expected = (6.0 - S6) + 0.3 * 9.5 + 4.0
    row = doc["pairs"][0]
    assert row["h12"] == pytest.approx(expected, abs=1e-12)
    assert row["f"] == pytest.approx(expected, abs=1e-12)
    assert row["covered"] is True
    assert doc["objective"] == 1.0
    assert doc["covered"] == [[0, 1]]


def test_evaluate_bad_point_exit1(files):
    proc = run_cli(
        "evaluate", "--instance", str(files["fig2_a03"]),
        "--x1", "0:99", "--x2", "1:2.0",
    )
    assert proc.returncode == 1


def test_csv_format_rejected_outside_curves(files):
    proc = run_cli(
        "solve", "--instance", str(files["fig2"]), "--format", "csv"
    )
    assert proc.returncode == 1
    assert "unrecognized arguments: --format csv" in proc.stderr


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (["solve"], "--grid-res", "120"),
        (["oracle"], "--trace-res", "64"),
        (["oracle"], "--jobs", "2"),
        (["preprocess"], "--cov-tol", "1e-6"),
        (["curves", "--segments", "0,2"], "--cov-tol", "1e-6"),
        (["evaluate", "--x1", "0:1", "--x2", "1:1"], "--jobs", "2"),
    ],
)
def test_flag_rejected_where_it_does_not_act(files, command, flag, value):
    # each command takes only the options it reads, so none is silently ignored
    proc = run_cli(*command, "--instance", str(files["fig4"]), flag, value)
    assert proc.returncode == 1
    assert f"unrecognized arguments: {flag}" in proc.stderr


def test_curves_json_format(files):
    proc = run_cli(
        "curves", "--instance", str(files["fig4"]), "--segments", "0,2",
        "--pair", "0,1", "--trace-res", "64", "--format", "json",
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["segments"] == [0, 2]
    nonempty = [c for c in doc["curves"] if c["polylines"]]
    assert {(c["orientation"], c["branch"]) for c in nonempty} == {
        ("12", "a"),
        ("12", "b"),
    }


def test_solve_starts_no_process_or_thread(files, capsys):
    # suite seed 139 solves 10 restricted problems, all in this process
    processes, threads = set(multiprocessing.active_children()), set(threading.enumerate())
    assert cli.main(["solve", "--instance", str(files["seed139"]), "--jobs", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["stats"]["solved"] == 10
    assert set(multiprocessing.active_children()) == processes
    assert set(threading.enumerate()) == threads


def test_jobs_produce_byte_identical_documents(files):
    out1 = files["root"] / "jobs1.json"
    out2 = files["root"] / "jobs2.json"
    base = [
        "solve", "--instance", str(files["fig2"]), "--trace-res", "64",
    ]
    assert run_cli(*base, "--jobs", "1", "--out", str(out1)).returncode == 0
    assert run_cli(*base, "--jobs", "2", "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_import_leaves_scipy_out():
    # the solver needs numpy only; scipy's import alone cost half a second
    code = "import sys, tripcover.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_leaves_process_pools_out():
    # every solve runs in the calling process
    code = (
        "import sys, tripcover.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
