import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from tandempoll import reporting
from tandempoll.model import SystemParams, TruncationConfig, validate_params
from tandempoll.reporting import (
    SCHEMA,
    ComparisonRow,
    ExperimentConfig,
    emit_report,
    load_config,
    main,
    parse_report,
    run_experiment,
)
from tandempoll.simulator import SimConfig

ROOT = Path(__file__).resolve().parents[1]


def small_config(**over):
    base = dict(
        params=validate_params(SystemParams(lam=(1.0, 1.0), mu=((2.86, 2.86), (2.86, 2.86)))),
        cases=((1, 1, 1, 1),),
        scenarios=(1,),
        modes=("analytic", "simulate", "deterministic"),
        sim=SimConfig(replications=200, seed=4),
    )
    base.update(over)
    return ExperimentConfig(**base)


CONFIG = {
    "schema": SCHEMA,
    "rates": {"lambda": [1.0, 1.0], "mu": [[2.86, 2.86], [2.86, 2.86]]},
    "cases": [[1, 1, 1, 1], [3, 3, 1, 1]],
    "scenarios": [1, 2],
    "modes": ["analytic", "deterministic"],
    "sim": {"replications": 100, "seed": 11},
}


def write_config(path, **over):
    path.write_text(json.dumps({**CONFIG, **over}))
    return str(path)


class TestConfig:
    def test_load_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json"))
        assert cfg.cases == ((1, 1, 1, 1), (3, 3, 1, 1))
        assert cfg.scenarios == (1, 2)
        assert cfg.sim.replications == 100
        assert cfg.trunc == TruncationConfig()

    def test_rejects_wrong_schema(self, tmp_path):
        path = write_config(tmp_path / "c.json", schema="polling-wait/v0")
        with pytest.raises(ValueError, match="schema"):
            load_config(path)

    def test_rejects_empty_cases(self):
        with pytest.raises(ValueError):
            small_config(cases=())

    def test_rejects_empty_scenarios_at_load(self, tmp_path):
        with pytest.raises(ValueError, match="at least one scenario"):
            load_config(write_config(tmp_path / "c.json", scenarios=[]))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            small_config(modes=("analytic", "plot"))

    @pytest.mark.parametrize("over,named", [
        ({"cases": 5}, "cases must be a JSON list, got int"),
        ({"scenarios": 5}, "scenarios must be a JSON list, got int"),
        ({"modes": "analytic"}, "modes must be a JSON list, got str"),
    ])
    def test_python_config_checks_list_fields(self, over, named):
        with pytest.raises(ValueError, match=named):
            small_config(**over)

    def test_python_config_stores_lists_as_tuples(self):
        cfg = small_config(cases=[[1, 1, 1, 1]], scenarios=[1, 2], modes=["analytic"])
        assert (cfg.cases, cfg.scenarios, cfg.modes) == (((1, 1, 1, 1),), (1, 2), ("analytic",))
        assert type(cfg.modes) is tuple and type(cfg.scenarios) is tuple
        hash(cfg)  # frozen and hashable, as a config from load_config is

    def test_integral_case_becomes_ints(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json", cases=[[2.0, 1, 1, 1]]))
        assert cfg.cases == ((2, 1, 1, 1),)
        assert all(type(x) is int for x in cfg.cases[0])

    @pytest.mark.parametrize("case", [[1.5, 1, 1, 1], [True, 1, 1, 1], ["1", 1, 1, 1], [1, 1, 1]])
    def test_rejects_non_integral_case_at_load(self, tmp_path, case):
        with pytest.raises(ValueError, match="non-negative integers"):
            load_config(write_config(tmp_path / "c.json", cases=[case]))

    def test_integral_indices_become_ints(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json", scenarios=[2.0, 1], tagged_class=2.0))
        assert cfg.scenarios == (2, 1) and cfg.tagged_class == 2
        assert all(type(m) is int for m in cfg.scenarios) and type(cfg.tagged_class) is int

    @pytest.mark.parametrize("index", [True, 1.5, "2"])
    def test_rejects_non_integral_indices_at_load(self, tmp_path, index):
        with pytest.raises(ValueError, match="scenario index"):
            load_config(write_config(tmp_path / "c.json", scenarios=[index]))
        with pytest.raises(ValueError, match="tagged_class"):
            load_config(write_config(tmp_path / "c.json", tagged_class=index))


class TestRunExperiment:
    def test_all_modes_populated(self):
        result = run_experiment(small_config())
        row = result.rows[0]
        assert row.analytic is not None
        assert row.sim_mean is not None and row.sim_stderr is not None
        assert row.det is not None
        assert row.residual is not None
        assert row.error_pct == pytest.approx(
            abs((row.sim_mean - row.analytic) / row.sim_mean) * 100
        )
        assert result.summary["failed"] == 0

    def test_single_mode_leaves_others_empty(self):
        result = run_experiment(small_config(modes=("deterministic",)))
        row = result.rows[0]
        assert row.det is not None
        assert row.analytic is None and row.sim_mean is None and row.error_pct is None

    def test_error_pct_semantics(self):
        # |sim - analytic| / sim, in percent
        row = ComparisonRow(la=(1, 1, 1, 1), m=1, analytic=1.60, sim_mean=1.48)
        err = abs((row.sim_mean - row.analytic) / row.sim_mean) * 100
        assert err == pytest.approx(8.108, abs=1e-3)

    def test_row_failure_does_not_abort(self):
        # an unstable parameter set fails each row but the batch finishes
        cfg = small_config(
            params=SystemParams(lam=(1.0, 1.0), mu=((1.8, 2.86), (1.8, 2.86))),
            cases=((1, 1, 1, 1), (0, 0, 0, 0)),
            scenarios=(1, 2),
        )
        result = run_experiment(cfg)
        assert len(result.rows) == 4
        assert result.summary["failed"] == 4
        assert all(r.error is not None for r in result.rows)

    def test_error_below_threshold_counts_as_accurate(self, monkeypatch):
        # analytic 0.905 against a simulated 1.0 is a 9.5% gap
        monkeypatch.setattr(reporting, "analyze",
                            lambda *a: SimpleNamespace(cond_wait=0.905, residual_prob=0.0))
        monkeypatch.setattr(reporting, "simulate_conditional",
                            lambda *a: SimpleNamespace(mean=1.0, stderr=0.0))
        result = run_experiment(small_config(modes=("analytic", "simulate")))
        assert result.rows[0].error_pct == pytest.approx(9.5)
        assert result.summary["share_error_below_10pct"] == 1.0

    def test_writes_no_report(self, tmp_path):
        out = tmp_path / "r.csv"
        result = run_experiment(small_config(modes=("deterministic",), output=str(out)))
        assert result.rows[0].det is not None and not out.exists()

    def test_deterministic_given_seed(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        assert a.rows[0].sim_mean == b.rows[0].sim_mean


class TestEmit:
    def test_csv_round_trip(self, tmp_path):
        result = run_experiment(small_config(cases=((1, 1, 1, 1), (2, 0, 1, 3)), scenarios=(1, 3)))
        path = tmp_path / "out.csv"
        emit_report(result.rows, str(path), "csv")
        back = parse_report(str(path))
        assert len(back) == len(result.rows)
        for r0, r1 in zip(result.rows, back):
            assert r1.la == r0.la and r1.m == r0.m
            assert r1.analytic == r0.analytic
            assert r1.sim_mean == r0.sim_mean
            assert r1.det == r0.det
            assert r1.residual == r0.residual

    @pytest.mark.parametrize("mode", ["analytic", "simulate", "deterministic"])
    def test_integral_float_case_round_trip(self, tmp_path, mode):
        path = tmp_path / "out.csv"
        result = run_experiment(small_config(cases=((2.0, 1, 1, 1),), modes=(mode,)))
        assert result.rows[0].error is None
        emit_report(result.rows, str(path))
        back = parse_report(str(path))
        assert back[0].la == (2, 1, 1, 1)
        assert back[0].error is None
        ints = run_experiment(small_config(cases=((2, 1, 1, 1),), modes=(mode,))).rows[0]
        assert (back[0].analytic, back[0].sim_mean, back[0].det) == (ints.analytic, ints.sim_mean, ints.det)

    def test_integral_float_scenario_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json", scenarios=[2.0]))
        path = tmp_path / "out.csv"
        emit_report(run_experiment(cfg).rows, str(path))
        back = parse_report(str(path))
        assert [r.m for r in back] == [2, 2]
        assert [r.error for r in back] == [None, None]
        ints = run_experiment(dataclasses.replace(cfg, scenarios=(2,))).rows
        assert [(r.analytic, r.det) for r in back] == [(r.analytic, r.det) for r in ints]

    def test_failed_row_round_trip(self, tmp_path):
        rows = [
            ComparisonRow(la=(1, 1, 1, 1), m=1, analytic=1.5, det=1.25, residual=0.0),
            ComparisonRow(la=(60, 60, 60, 60), m=1,
                          error="TruncationTooTight: start (125, 2), n_max = 80"),
        ]
        path = tmp_path / "out.csv"
        emit_report(rows, str(path), "csv")
        back = parse_report(str(path))
        assert [r.error for r in back] == [r.error for r in rows]
        assert back[1].analytic is None and back[1].residual is None
        table = tmp_path / "out.txt"
        emit_report(rows, str(table), "table")
        assert rows[1].error in table.read_text()

    def test_single_row_csv_is_two_lines(self, tmp_path):
        result = run_experiment(small_config(modes=("deterministic",)))
        path = tmp_path / "one.csv"
        emit_report(result.rows, str(path), "csv")
        assert len(path.read_text().splitlines()) == 2

    def test_table_format(self, tmp_path):
        result = run_experiment(small_config())
        path = tmp_path / "out.txt"
        emit_report(result.rows, str(path), "table")
        text = path.read_text()
        assert text.startswith("la")
        assert f"{result.rows[0].det:.2f}" in text

    GOLDEN_ROWS = [
        ComparisonRow(la=(1, 1, 1, 1), m=1, analytic=1.6012345678901234, sim_mean=1.4812,
                      sim_stderr=0.01234, det=1.25, error_pct=8.100, residual=3.25e-12),
        ComparisonRow(la=(12, 0, 3, 10), m=4, det=12.5),
        ComparisonRow(la=(60, 60, 60, 60), m=2,
                      error="TruncationTooTight: start (121, 2), n_max = 256"),
    ]
    GOLDEN = {
        "csv": (
            "la,m,analytic,sim_mean,sim_stderr,det,error_pct,residual,error\r\n"
            "1 1 1 1,1,1.6012345678901234,1.4812,0.01234,1.25,8.1,3.25e-12,\r\n"
            "12 0 3 10,4,,,,12.5,,,\r\n"
            '60 60 60 60,2,,,,,,,"TruncationTooTight: start (121, 2), n_max = 256"\r\n'
        ),
        "table": (
            "la           m   analytic  sim_mean  sim_stderr det       error_pct  residual   error\n"
            "1 1 1 1      1   1.60      1.48      0.012      1.25      8.10       3.25e-12    \n"
            "12 0 3 10    4                                  12.50                            \n"
            "60 60 60 60  2                                                                  "
            "TruncationTooTight: start (121, 2), n_max = 256\n"
        ),
    }

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_golden_bytes(self, tmp_path, fmt):
        path = tmp_path / f"out.{fmt}"
        emit_report(self.GOLDEN_ROWS, str(path), fmt)
        assert path.read_bytes() == self.GOLDEN[fmt].encode()

    def test_wide_cell_keeps_a_space(self, tmp_path):
        path = tmp_path / "out.txt"
        emit_report([ComparisonRow(la=(200, 200, 200, 200), m=2, det=1.5)], str(path), "table")
        assert path.read_text().splitlines()[1].split() == ["200", "200", "200", "200", "2", "1.50"]

    def test_golden_csv_reads_back(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(self.GOLDEN["csv"].encode())
        assert parse_report(str(path)) == self.GOLDEN_ROWS

    def test_older_report_without_error_column(self, tmp_path):
        path = tmp_path / "old.csv"
        path.write_text(
            "la,m,analytic,sim_mean,sim_stderr,det,error_pct,residual\n"
            "1 1 1 1,1,1.6012345678901234,1.4812,0.01234,1.25,8.1,3.25e-12\n"
            "12 0 3 10,4,,,,12.5,,\n"
        )
        assert parse_report(str(path)) == [
            dataclasses.replace(self.GOLDEN_ROWS[0], error=None), self.GOLDEN_ROWS[1]
        ]

    @pytest.mark.parametrize("text,missing", [
        (GOLDEN["table"], "la, m"),
        ("m,analytic\n1,1.6\n", "la"),
        ("", "la, m"),
    ], ids=["table-report", "no-la", "empty"])
    def test_file_without_report_columns(self, tmp_path, text, missing):
        path = tmp_path / "other.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"has no {missing} column"):
            parse_report(str(path))

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], str(tmp_path / "x.csv"))


class TestMain:
    def test_cli_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "r.csv"
        code = main([cfg, "-o", str(out)])
        assert code == 0
        assert out.exists()
        assert "failed: 0" in capsys.readouterr().out

    def test_cli_writes_config_output(self, tmp_path):
        out = tmp_path / "r.txt"
        assert main([write_config(tmp_path / "c.json", output=str(out)), "--format", "table"]) == 0
        assert len(out.read_text().splitlines()) == 5

    def test_cli_mode_override_and_seed(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", modes=["deterministic"])
        out = tmp_path / "r.csv"
        assert main([cfg, "-o", str(out), "--modes", "deterministic", "--seed", "3"]) == 0
        rows = parse_report(str(out))
        assert all(r.sim_mean is None for r in rows)

    def test_python_m_runs_cli(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        out = tmp_path / "r.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "tandempoll", str(ROOT / "demos" / "experiment.json"),
             "--modes", "deterministic", "-o", str(out)],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert len(parse_report(str(out))) == 20

    # over: the JSON document written as the config file; None writes no file
    @pytest.mark.parametrize("over,named", [
        ({**CONFIG, "trunc": {"series_tol": 1e-10}}, "unknown trunc keys: series_tol"),
        ({**CONFIG, "sim": {"bogus": 1}}, "unknown sim keys: bogus"),
        (None, "No such file or directory"),
        ({**CONFIG, "rates": {"lambda": [1.0, 1.0], "mu": [[1.5, 1.5], [1.5, 1.5]]}},
         "station 1 is unstable"),
        ({**CONFIG, "rates": {"lambda": [1.0, -1.0], "mu": [[2.86, 2.86], [2.86, 2.86]]}},
         "rates must be positive"),
        ({k: v for k, v in CONFIG.items() if k != "cases"}, "config lacks cases"),
        ({**CONFIG, "trunc": 5}, "trunc must be a JSON object, got int"),
        ([CONFIG], "config must be a JSON object, got list"),
        ({**CONFIG, "sim": {"replications": "800"}},
         "replications must be a non-negative integer, got '800'"),
        ({**CONFIG, "output": "no_such_dir/r.csv"}, "No such file or directory"),
        ({**CONFIG, "cases": 5}, "cases must be a JSON list, got int"),
        ({**CONFIG, "scenarios": 5}, "scenarios must be a JSON list, got int"),
        ({**CONFIG, "modes": "analytic"}, "modes must be a JSON list, got str"),
        ({**CONFIG, "modes": [["analytic"]]}, "unknown modes: [['analytic']]"),
        ({**CONFIG, "rates": {"lambda": 1.0, "mu": [[2.86, 2.86], [2.86, 2.86]]}},
         "rates.lambda must be a JSON list, got float"),
        ({**CONFIG, "rates": {"lambda": [1.0, 1.0], "mu": 2.86}}, "rates.mu must be a JSON list"),
        ({**CONFIG, "rates": {"lambda": [1.0, 1.0], "mu": [2.86, 2.86]}},
         "rates.mu row must be a JSON list, got float"),
        ({**CONFIG, "trunc": {"n_max": "80"}}, "n_max must be an integer >= 10, got '80'"),
        ({**CONFIG, "trunc": {"eps": "0.1"}}, "eps must be a real number in (0, 1), got '0.1'"),
        ({**CONFIG, "output": True}, "output must be a string, got bool"),
        ({**CONFIG, "scenario": [1]}, "unknown config keys: scenario"),
        ({**CONFIG, "sim": {"batches": 20}}, "unknown sim keys: batches"),
        ({**CONFIG, "rates": {"lambda": [10**400, 1.0], "mu": [[2.86, 2.86], [2.86, 2.86]]}},
         "rates must be positive and finite"),
        ({**CONFIG, "rates": {**CONFIG["rates"], "rho": 3}}, "unknown rates keys: rho"),
    ])
    def test_config_error_is_one_line(self, tmp_path, monkeypatch, capsys, over, named):
        # in process: an exception escaping main fails the test as a traceback would
        path = tmp_path / "c.json"
        if over is not None:
            path.write_text(json.dumps(over))
        monkeypatch.chdir(tmp_path)
        assert reporting.main([str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("polling-wait: ") and err.count("\n") == 1
        assert named in err and "Traceback" not in err

    def test_unwritable_report_fails_before_the_batch(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(reporting, "run_experiment", lambda cfg: pytest.fail("batch ran"))
        out = tmp_path / "no_such_dir" / "r.csv"
        assert main([write_config(tmp_path / "c.json"), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("polling-wait: ") and "No such file or directory" in err

    def test_cli_large_case(self, tmp_path, capsys):
        # sixty customers per queue fit the default lattice cap
        cfg = write_config(
            tmp_path / "c.json",
            rates={"lambda": [1.0, 1.0], "mu": [[2.22, 2.22], [2.22, 2.22]]},
            cases=[[60, 60, 60, 60]], scenarios=[1], modes=["analytic"],
        )
        assert main([cfg, "-o", str(tmp_path / "r.csv")]) == 0
        [row] = parse_report(str(tmp_path / "r.csv"))
        assert row.error is None and row.analytic > 0
        assert "failed: 0" in capsys.readouterr().out

    def test_cli_failure_exit_code(self, tmp_path):
        # a case whose starts do not fit the lattice cap (n_max = 256) fails
        # its rows; the batch still completes and the exit code flags the failure
        cfg = write_config(
            tmp_path / "c.json",
            cases=[[1, 1, 1, 1], [200, 200, 200, 200]],
            modes=["analytic"],
        )
        assert main([cfg, "-o", str(tmp_path / "r.csv")]) == 1
        rows = parse_report(str(tmp_path / "r.csv"))
        assert rows[0].analytic is not None
        failed = [r for r in rows if r.la == (200, 200, 200, 200)]
        assert failed and all(r.analytic is None for r in failed)
        assert all("TruncationTooTight" in r.error and "n_max = 256" in r.error for r in failed)
