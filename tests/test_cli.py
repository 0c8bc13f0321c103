"""CLI: listing, running, CSV export, SQL execution."""

import csv
import io

import pytest

from repro.cli import EXPERIMENTS, build_parser, main, results_to_csv
from repro.experiments.common import ExperimentResult
from repro.sim.stats import Series


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_shows_every_experiment(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    for key in EXPERIMENTS:
        assert key in out
    assert "Figure 8" in out


def test_run_unknown_experiment_fails(capsys):
    with pytest.raises(SystemExit, match="unknown experiment"):
        main(["run", "fig99"])


def test_run_table1(capsys):
    code, out, err = run_cli(capsys, "run", "table1")
    assert code == 0
    assert "6 regions" in out
    assert "24%" in out
    assert "Table 1" in err


def test_run_panel_alias_resolves(capsys):
    # fig9c resolves to the fig9 runner but prints only the 9c panel.
    import repro.cli as cli
    saved = cli.EXPERIMENTS["fig9"]
    fast = ExperimentResult("fig9c", "stub", "x", "y",
                            series=[Series("FV")])
    other = ExperimentResult("fig9a", "stub", "x", "y",
                             series=[Series("FV")])
    cli.EXPERIMENTS["fig9"] = (saved[0], lambda: [other, fast])
    try:
        code, out, _ = run_cli(capsys, "run", "fig9c")
        assert code == 0
        assert "fig9c" in out
        assert "fig9a" not in out
    finally:
        cli.EXPERIMENTS["fig9"] = saved


def test_csv_export_long_form():
    series = Series("FV")
    series.add(64, 1.5)
    series.add(128, 2.5)
    result = ExperimentResult("figX", "t", "bytes", "us", series=[series])
    text = results_to_csv([result])
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["experiment", "series", "x", "y", "x_label", "y_label"]
    assert rows[1] == ["figX", "FV", "64", "1.5", "bytes", "us"]
    assert len(rows) == 3


def test_run_with_csv_output(tmp_path, capsys):
    out_file = tmp_path / "out.csv"
    code, _, err = run_cli(capsys, "run", "table1", "--csv", str(out_file))
    assert code == 0
    assert out_file.exists()
    assert "wrote" in err


def test_sql_command(capsys):
    code, out, _ = run_cli(
        capsys, "sql", "SELECT c, COUNT(*) FROM demo GROUP BY c",
        "--rows", "256", "--limit", "3")
    assert code == 0
    assert "16 rows" in out
    assert "more)" in out


def test_sql_join_prints_the_arm_and_the_client_steps(capsys):
    code, out, _ = run_cli(
        capsys, "sql", "SELECT c, rate FROM demo JOIN dim ON demo.c = "
        "dim.id WHERE dim.rate < 2.0 ORDER BY rate", "--rows", "64")
    assert code == 0
    plan = out.split("Placement plan", 1)[1]
    # The filtered dim build is a client arm over its own placed scan.
    assert "join(dim)  -> client" in plan
    assert "selection  -> offload" in plan
    assert "sort       -> client" in plan


def test_sql_custom_table_name(capsys):
    code, out, _ = run_cli(
        capsys, "sql", "SELECT COUNT(*) FROM mytab", "--table", "mytab",
        "--rows", "128")
    assert code == 0
    assert "1 rows" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
