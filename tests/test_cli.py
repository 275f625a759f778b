import csv
import itertools
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from fhl.cli import _write_solution_csv, parse_config, run_command, serialize_config
from fhl.errors import MissingRequired, UnknownKey, WrongType
from fhl.grids import GridField, interval, rectangle

GOOD = """
# reference config
regime=subcritical
n=1
s=0.3
mu=0.4
eps=0.1
domain.kind=interval
grid=256
modes=64
theta=1.0
"""


def test_parse_round_trip():
    cfg, warnings = parse_config(GOOD)
    assert warnings == []
    cfg2, _ = parse_config(serialize_config(cfg))
    assert cfg == cfg2


def test_parse_type_error():
    with pytest.raises(WrongType, match="'s'"):
        parse_config(GOOD + "\ns=two\n")


def test_parse_unknown_key():
    with pytest.raises(UnknownKey):
        parse_config(GOOD + "\nbogus=1\n")


def test_parse_missing_required():
    with pytest.raises(MissingRequired):
        parse_config("n=1\ns=0.3\n")


def test_duplicate_key_last_wins():
    cfg, warnings = parse_config(GOOD + "\ns=0.25\n")
    assert cfg["s"] == 0.25
    assert any("duplicate" in w for w in warnings)


def test_selftest_exit_zero(capsys):
    assert run_command(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_solve_missing_config_exit_one(capsys):
    assert run_command(["solve", "--config", "does-not-exist.cfg"]) == 1
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert "error" in payload


def test_constants_json(capsys):
    rc = run_command(["constants", "--n", "2", "--s", "0.5", "--mu", "1", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["C_ns"] - 2 ** 0.5) < 1e-12
    assert set(payload) >= {"C_ns", "Alpha_nmus", "BetaTilde_nmus", "b_ns"}


def test_bubble_check_csv(capsys):
    rc = run_command(["bubble", "check", "--n", "1", "--s", "0.3",
                      "--mu", "0.4", "--points", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,lhs,rhs,residual"
    assert len(lines) == 5
    for line in lines[1:]:
        assert float(line.split(",")[3]) < 1e-5


def test_bubble_quotient(capsys):
    rc = run_command(["bubble", "quotient", "--n", "2", "--s", "0.5", "--mu", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    q = float(out.splitlines()[0].split()[1])
    assert abs(q - 1.16245) < 1e-4


def test_solve_and_archive(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(GOOD + "\nmax_iter=2000\n")
    rc = run_command(["solve", "--config", str(cfg_path),
                      "--out", str(tmp_path / "out")])
    assert rc == 0
    payload = json.loads((tmp_path / "out" / "solve.json").read_text())
    assert payload["record"]["converged"] is True
    assert (tmp_path / "out" / "solution.csv").exists()


def test_continuation_deterministic_replay(tmp_path):
    """Criterion-12 style replay on a small config: identical report.json
    apart from the wall-time field."""
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(GOOD + "\nmax_iter=3000\n")
    outs = []
    for name in ("a", "b"):
        rc = run_command(["continuation", "--config", str(cfg_path),
                          "--eps", "0.5,0.4", "--out", str(tmp_path / name)])
        assert rc == 0
        payload = json.loads((tmp_path / name / "report.json").read_text())
        payload.pop("wall_time_s")
        outs.append(json.dumps(payload, sort_keys=True))
    assert outs[0] == outs[1]
    # summary.csv fixed column order
    header = (tmp_path / "a" / "summary.csv").read_text().splitlines()[0]
    assert header == ("eps,mu_eps,mu_eps_pow_eps,x_eps,profile_dist,"
                      "rate_lhs,boundary_sup,interior_L1")


def test_report_emission(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(GOOD)
    run_command(["continuation", "--config", str(cfg_path),
                 "--eps", "0.5,0.4", "--out", str(tmp_path / "run")])
    rc = run_command(["report", "--in", str(tmp_path / "run" / "report.json"),
                      "--out", str(tmp_path / "plots")])
    assert rc == 0
    for name in ("mu_eps", "mu_power", "profile_distance", "rate_lhs",
                 "boundary_sup", "interior_l1"):
        assert (tmp_path / "plots" / f"{name}.csv").exists()
        svg = (tmp_path / "plots" / f"{name}.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg


def test_solve_rectangle_csv(tmp_path):
    cfg_path = tmp_path / "rect.cfg"
    cfg_path.write_text("regime=subcritical\nn=2\ns=0.45\nmu=1.1\neps=0.2\n"
                        "domain.kind=rectangle\ndomain.bx=1.4\ndomain.by=0.9\n"
                        "grid=32\nmodes=64\ntheta=1.0\nmax_iter=2000\n")
    rc = run_command(["solve", "--config", str(cfg_path),
                      "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "solution.csv").read_text().splitlines()
    assert lines[0] == "x,y,u"
    assert len(lines) == 1 + 32 * 32
    # row-major: y runs fastest
    assert [tuple(map(float, row.split(",")[:2])) for row in lines[1:3]] == [
        (0.0, 0.0), (0.0, pytest.approx(0.9 / 31, rel=1e-11))]
    assert tuple(map(float, lines[-1].split(",")[:2])) == (1.4, 0.9)


@pytest.mark.parametrize("dom", [interval(-0.5, 0.9, 37), rectangle(0.0, 1.4, -0.2, 0.9, 19)],
                         ids=["interval", "rectangle"])
def test_solution_csv_matches_csv_writer(tmp_path, dom):
    """The streamed rows are byte for byte what csv.writer writes."""
    rng = np.random.default_rng(3)
    vals = rng.normal(size=dom.shape) * 10.0 ** rng.integers(-9, 9, size=dom.shape)
    vals.flat[:3] = (0.0, -0.0, 1e-300)
    record = SimpleNamespace(grid=GridField(dom, vals))
    _write_solution_csv(tmp_path / "fast.csv", record)
    with open(tmp_path / "slow.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"][:dom.dim] + ["u"])
        for node, u in zip(itertools.product(*dom.axes()), vals.ravel()):
            writer.writerow(["%.12g" % c for c in (*node, u)])
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


@pytest.mark.parametrize("extra, argv_tail, key", [
    ("seed=bubble_cap:abc\n", ["solve"], "'seed'"),
    ("", ["continuation", "--eps", "0.4,x"], "--eps"),
    ("eps_list=0.4,x\n", ["continuation"], "'eps_list'"),
], ids=["seed", "eps-flag", "eps_list-key"])
def test_malformed_number_is_typed_error(tmp_path, capsys, extra, argv_tail, key):
    """A number that does not parse exits 1 with one JSON line naming the key."""
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(GOOD + extra)
    argv = [argv_tail[0], "--config", str(cfg_path), *argv_tail[1:],
            "--out", str(tmp_path / "out")]
    assert run_command(argv) == 1
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "WrongType"
    assert key in payload["message"]
    assert not (tmp_path / "out").exists()


def test_solve_without_eps_is_typed_error(tmp_path, capsys):
    """solve needs eps; without it the command exits 1 with one JSON line
    naming the key, as continuation does for its eps list."""
    cfg_path = tmp_path / "no_eps.cfg"
    cfg_path.write_text(GOOD.replace("eps=0.1\n", ""))
    assert run_command(["solve", "--config", str(cfg_path),
                        "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "MissingRequired"
    assert "'eps'" in payload["message"]
    assert not (tmp_path / "out").exists()


def test_schema_version_is_unknown_key():
    with pytest.raises(UnknownKey, match="'schema_version'"):
        parse_config(GOOD + "schema_version=7\n")

