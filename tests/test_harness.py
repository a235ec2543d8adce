import csv
import enum
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from permlab import core, dilation, harness, suite
from permlab.core import Subset
from permlab.harness import (
    ExperimentConfig,
    execute,
    load_config,
    main,
    render_csv,
    run,
    with_defaults,
)
from reference import reference_render_csv

# Each subcommand's unset fields, written out as the values the runners used
# before they moved into one defaults table.
WRITTEN_OUT_DEFAULTS = {
    "dilate": dict(n=1, queries=2, dim_b=2),
    "fix": dict(V=16, k=4, alpha=0.25, p=2.0, nref=4.0, target_k=3),
    "crossover": dict(alpha=0.25, p_coeffs=(0.0, 1.0), variant="uniform"),
    "relation": dict(kind="subset", epsilon=0.0, V=6, kx=2, ky=3, fixed="1"),
    "wtrace": dict(queries=5),
}


class TestConfig:
    def test_minimal_config_gets_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"subcommand": "wtrace"}')
        cfg = load_config(str(path))
        assert cfg.subcommand == "wtrace"
        assert cfg.seed == 0 and cfg.trials == 1
        assert cfg.queries is None

    def test_unknown_key_rejected_by_name(self, tmp_path):
        path = tmp_path / "cfg.json"
        for key in ("foo", "delta"):
            path.write_text(json.dumps({"subcommand": "wtrace", key: 1}))
            with pytest.raises(ValueError, match=f"'{key}'"):
                load_config(str(path))

    def test_parse_error_reports_line_and_column(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"subcommand": "wtrace",\n  broken}')
        with pytest.raises(ValueError, match="line 2"):
            load_config(str(path))

    def test_round_trip_is_canonical(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"trials": 3, "subcommand": "fix", "seed": 9}')
        cfg = load_config(str(path))
        canon = cfg.canonical_json()
        path2 = tmp_path / "cfg2.json"
        path2.write_text(canon)
        assert load_config(str(path2)).canonical_json() == canon

    @pytest.mark.parametrize("subcommand", sorted(WRITTEN_OUT_DEFAULTS))
    def test_unset_fields_run_as_the_written_out_defaults(self, subcommand):
        explicit = ExperimentConfig(subcommand, trials=2, **WRITTEN_OUT_DEFAULTS[subcommand])
        assert execute(ExperimentConfig(subcommand, trials=2)) == execute(explicit)

    def test_defaults_fill_only_unset_fields(self):
        cfg = with_defaults(ExperimentConfig("fix", k=6, alpha=0.1))
        assert (cfg.V, cfg.k, cfg.alpha, cfg.p, cfg.nref, cfg.target_k) == (16, 6, 0.1, 2.0, 6.0, 5)
        assert with_defaults(ExperimentConfig("fix", k=6, nref=2.5)).nref == 2.5
        for subcommand in ("verify", "suite"):
            assert with_defaults(ExperimentConfig(subcommand, n=2)) == ExperimentConfig(subcommand, n=2)

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(ValueError, match="subcommand"):
            ExperimentConfig(subcommand="dance")


class TestRunners:
    def test_verify_random_sweep_n1(self):
        cfg = ExperimentConfig(subcommand="verify", n=1, seed=5, trials=4)
        code, header, rows = execute(cfg)
        assert code == 0  # at n=1 the soundness flag holds (no even members)
        assert header[0] == "instance_id"
        assert len(rows) == 4
        labels = [r[3] for r in rows]
        assert labels == ["YES", "NO", "YES", "NO"]

    def test_verify_exhaustive_no_documents_violations(self):
        cfg = ExperimentConfig(subcommand="verify", n=2, exhaustive_no=True, seed=0)
        code, header, rows = execute(cfg)
        assert len(rows) == 448
        assert all(abs(r[7] - 0.75) < 1e-9 for r in rows)
        # every row exceeds the 2/3 soundness flag, so the run reports failure
        assert code == 1

    def test_verify_fractional(self):
        cfg = ExperimentConfig(subcommand="verify", N=6, seed=1, trials=2)
        code, header, rows = execute(cfg)
        assert rows[0][1] == 6
        yes_row = rows[0]
        assert abs(yes_row[6] - 5 / 6) < 1e-10

    def test_verify_requires_size(self):
        with pytest.raises(ValueError, match="verify"):
            execute(ExperimentConfig(subcommand="verify"))

    def test_dilate_rows_and_flag(self):
        cfg = ExperimentConfig(subcommand="dilate", queries=1, trials=2, seed=3)
        code, header, rows = execute(cfg)
        assert code == 0
        assert header == ["trial", "k", "trace_distance"]
        assert len(rows) == 4  # (t+1) rows per trial
        assert all(r[2] <= 1e-9 for r in rows)

    def test_fix_runner(self):
        cfg = ExperimentConfig(subcommand="fix", trials=3, seed=7)
        code, header, rows = execute(cfg)
        assert code == 0
        assert len(rows) == 3
        assert all(r[4] is True for r in rows)

    def test_crossover_runner(self):
        cfg = ExperimentConfig(subcommand="crossover", alpha=0.25, variant="parity")
        code, header, rows = execute(cfg)
        assert code == 0
        assert header == ["n", "log_upper", "log_lower"]
        assert len(rows) == 64
        assert rows[0][0] == 1

    def test_relation_runner_subset_defaults(self):
        cfg = ExperimentConfig(subcommand="relation")
        code, header, rows = execute(cfg)
        assert code == 0
        m, m_prime, l_max, bound = rows[0]
        assert (m, m_prime) == (10, 5)
        assert bound == pytest.approx((m * m_prime / l_max) ** 0.5)

    def test_relation_runner_preimage(self):
        cfg = ExperimentConfig(subcommand="relation", kind="preimage", n=1)
        code, header, rows = execute(cfg)
        assert rows[0][:3] == [1, 1, 1]

    def test_wtrace_runner(self):
        cfg = ExperimentConfig(subcommand="wtrace", queries=3, seed=2, trials=2)
        code, header, rows = execute(cfg)
        assert code == 0
        assert header == ["t", "w_t", "drop", "sqrt_lmax"]
        assert len(rows) == 8
        assert rows[0][2] == ""  # no drop before the first query


class TestDeterminism:
    def test_same_config_same_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            cfg = ExperimentConfig(
                subcommand="fix", trials=4, seed=11, out=str(out)
            )
            run(cfg)
        assert out1.read_bytes() == out2.read_bytes()

    def test_different_seed_different_bytes(self, tmp_path):
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}.csv"
            run(ExperimentConfig(subcommand="wtrace", seed=seed, out=str(out)))
            outs.append(out.read_bytes())
        assert outs[0] != outs[1]

    def test_float_formatting_17_digits(self):
        text = render_csv(["x"], [[1 / 3]])
        assert "0.33333333333333331" in text

    def test_cells_render_as_the_per_cell_reference(self):
        class Level(enum.IntEnum):
            HIGH = 3

        header = ["plain", "with,comma", 'with "quote"']
        rows = [
            [True, False, 0, -7, 2**70, np.int64(5), np.int32(-3), np.uint8(255), np.bool_(True)],
            [1 / 3, -0.0, float("nan"), float("-inf"), 1e-300, np.float64(2.5),
             np.float32(0.1), 2.0, Level.HIGH],
            ["", "a,b", 'say "hi"', "line\nbreak", " ", "", 12, 0.5, None],
            [],
        ]
        assert render_csv(header, rows) == reference_render_csv(header, rows)


class TestCli:
    def test_main_writes_csv(self, tmp_path):
        out = tmp_path / "rel.csv"
        code = main(["relation", "--V", "6", "--kx", "2", "--ky", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "m,m_prime,l_max,bound"
        assert len(lines) == 2

    def test_main_merges_config_and_flags(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"subcommand": "wtrace", "queries": 2, "seed": 1}))
        out = tmp_path / "w.csv"
        code = main(["wtrace", "--config", str(cfg_path), "--seed", "9", "--out", str(out)])
        assert code == 0
        # flag seed overrides the file seed; file queries survives
        text = out.read_text()
        assert len(text.splitlines()) == 1 + 3  # header + t=0..2
        out2 = tmp_path / "w2.csv"
        assert main(["wtrace", "--queries", "2", "--seed", "9", "--out", str(out2)]) == 0
        assert out.read_bytes() == out2.read_bytes()

    def test_main_reports_config_errors(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"subcommand": "wtrace", "nope": true}')
        code = main(["wtrace", "--config", str(cfg_path)])
        assert code == 2
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["0", "9", "-1"])
    def test_main_rejects_fixed_labels_outside_the_universe(self, label, capsys):
        argv = ["relation", "--V", "6", "--kx", "2", "--ky", "3", "--fixed", f"1 {label}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: fixed label {label} lies outside 1..6\n"

    @pytest.mark.parametrize("argv", [["fix", "--V", "4", "--k", "5"], ["fix", "--p", "-1"]])
    def test_main_rejects_impossible_fix_sizes(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_exact_dilate_reports_its_slack_on_stderr_only(self, capsys):
        argv = ["dilate", "--n", "1", "--queries", "2", "--trials", "3", "--seed", "4"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        code, header, rows = execute(
            ExperimentConfig(subcommand="dilate", n=1, queries=2, trials=3, seed=4)
        )
        assert captured.out == render_csv(header, rows)
        worst = max(row[2] for row in rows)
        assert captured.err == f"exact dilation: worst trace distance {worst:.3g} against 1e-09\n"
        assert worst <= 1e-12

    def test_verify_reports_its_margins_on_stderr_only(self, capsys):
        code, header, rows = execute(ExperimentConfig(subcommand="verify", n=3, trials=4, seed=1))
        capsys.readouterr()
        assert main(["verify", "--n", "3", "--trials", "4", "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == render_csv(header, rows)
        lam = {label: [r[7] for r in rows if r[3] == label] for label in ("YES", "NO")}
        assert captured.err == (
            f"lambda_max - 2/3: YES smallest {min(lam['YES']) - 2 / 3:+.3g} (of 2), "
            f"NO largest {max(lam['NO']) - 2 / 3:+.3g} (of 2)\n"
        )
        assert main(["verify", "--n", "2", "--exhaustive-no"]) == 1
        assert capsys.readouterr().err.startswith("lambda_max - 2/3: NO largest +0.0833 (of 448)")

    def test_verify_with_no_trials_prints_only_the_header(self, capsys):
        assert main(["verify", "--n", "2", "--trials", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "instance_id,n_or_N,k_even,label,p_honest_i,p_honest_ii,p_honest,lambda_max\n"
        )
        assert captured.err == ""

    @pytest.mark.parametrize("argv,message", [
        (["verify", "--n", "2", "--N", "6"],
         "subcommand 'verify' takes the field 'n' or the field 'N', not both"),
        (["verify", "--n", "0"], "field 'n' must be at least 1, got 0"),
        (["verify", "--n", "0", "--exhaustive-no"], "field 'n' must be at least 1, got 0"),
        (["verify", "--N", "1"], "field 'N' must be at least 2, got 1"),
        (["dilate", "--n", "0"], "field 'n' must be at least 1, got 0"),
        (["dilate", "--dim-b", "0"], "field 'dim_b' must be at least 1, got 0"),
        (["dilate", "--n", "2", "--tau-samples", "0"],
         "field 'tau_samples' must be at least 1, got 0"),
        (["wtrace", "--queries", "-1"], "field 'queries' must be at least 0, got -1"),
        (["verify", "--n", "2", "--trials", "-1"], "field 'trials' must be at least 0, got -1"),
        (["fix", "--trials", "-1"], "field 'trials' must be at least 0, got -1"),
        (["fix", "--V", "0"], "field 'V' must be at least 1, got 0"),
        (["fix", "--k", "20"], "field 'k' must lie in 0..V = 16, got 20"),
        (["fix", "--V", "3"], "field 'k' must lie in 0..V = 3, got 4"),
        (["fix", "--k", "-1"], "field 'k' must lie in 0..V = 16, got -1"),
        (["fix", "--target-k", "17"], "field 'target_k' must lie in 0..V = 16, got 17"),
        (["fix", "--target-k", "-1"], "field 'target_k' must lie in 0..V = 16, got -1"),
        # nref defaults to k
        (["fix", "--k", "0"], "field 'nref' must exceed 1, got 0.0 (nref defaults to k)"),
        (["fix", "--k", "1"], "field 'nref' must exceed 1, got 1.0 (nref defaults to k)"),
        (["fix", "--nref", "0.5"], "field 'nref' must exceed 1, got 0.5 (nref defaults to k)"),
        (["fix", "--p", "-1"], "field 'p' must be at least 0, got -1.0"),
        (["fix", "--p", "nan"], "field 'p' must be at least 0, got nan"),
        (["relation", "--fixed", "a"], "field 'fixed' must be space-separated labels, got 'a'"),
        (["crossover", "--p-coeffs", "1,x"],
         "field 'p_coeffs' must be comma-separated numbers, got '1,x'"),
        (["crossover", "--p-coeffs", ""], "field 'p_coeffs' must be comma-separated numbers, got ''"),
        # C(30, 15) = 155,117,520 sets of 15 labels: refused before any is drawn
        (["fix", "--V", "30", "--k", "15", "--p", "0"],
         "fields V = 30, k = 15 and p = 0.0 ask for families of C(V, k) / 2^p sets, above the "
         "cap 10000000"),
        (["crossover", "--p-coeffs", "nan"], "field 'p_coeffs' must be finite numbers, got 'nan'"),
        (["crossover", "--p-coeffs", "0,inf"], "field 'p_coeffs' must be finite numbers, got '0,inf'"),
        (["crossover", "--p-coeffs", "1e400"], "field 'p_coeffs' must be finite numbers, got '1e400'"),
        (["fix", "--p", "inf"], "field 'p' must be finite, got inf"),
        (["fix", "--nref", "nan"], "field 'nref' must be finite, got nan"),
        (["fix", "--nref", "inf"], "field 'nref' must be finite, got inf"),
    ])
    def test_main_rejects_out_of_range_fields_by_name(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        (["verify", "--n", "20", "--trials", "1"],
         "field 'n' must be at most 6, got 20 (N^2 labels must fit the dense-matrix cap 4096)"),
        (["verify", "--N", "100000"], "field 'N' must be at most 64, got 100000 "
         "(N^2 labels must fit the dense-matrix cap 4096)"),
        (["dilate", "--n", "6", "--queries", "1"], "dilated dimension 8^1 * 8192 exceeds the "
         "cap 4096; each query consumes a fresh control register"),
        (["dilate", "--n", "3", "--queries", "1", "--tau-samples", "100000"],
         "dilated dimension 100000^1 * 128 exceeds the cap 4096; each query consumes a fresh "
         "control register"),
        (["relation", "--kind", "preimage", "--n", "12"], "C(16777216,4096) exceeds the "
         "enumeration cap 10000000; use sample_family for seeded uniform sampling instead"),
        (["relation", "--kind", "preimage", "--n", "20"], "C(1099511627776,1048576) exceeds the "
         "enumeration cap 10000000; use sample_family for seeded uniform sampling instead"),
        # 10^7 + 1 unitaries of 8 x 8 in one trial: 9.54 GiB
        (["wtrace", "--queries", "10000000"], "field 'queries' must be at most 262143, got "
         "10000000: one trial would hold 640000064 entries, above MAX_DIM^2 = 16777216"),
        # no query reads a tau, yet each trial would draw 10^9 of them
        (["dilate", "--n", "2", "--queries", "0", "--tau-samples", "1000000000"],
         "field 'tau_samples' must be at most 1048576, got 1000000000: one trial would hold "
         "16000000000 entries, above MAX_DIM^2 = 16777216"),
        # C(3000, 1500) has 901 digits and C(300000, 150000) more than 90,000: no
        # binomial is finished, none is printed and none is divided as a float
        (["fix", "--V", "3000", "--k", "1500", "--p", "0.5"], "fields V = 3000, k = 1500 and "
         "p = 0.5 ask for families of C(V, k) / 2^p sets, above the cap 10000000"),
        (["fix", "--V", "3000", "--k", "1500"], "fields V = 3000, k = 1500 and p = 2.0 ask for "
         "families of C(V, k) / 2^p sets, above the cap 10000000"),
        (["fix", "--V", "300000", "--k", "150000"], "fields V = 300000, k = 150000 and p = 2.0 "
         "ask for families of C(V, k) / 2^p sets, above the cap 10000000"),
        # the capped count, 10^7 * 2^2001 + 1, is too large for a float division
        (["fix", "--V", "3000", "--k", "1500", "--p", "2000.5"], "fields V = 3000, k = 1500 "
         "and p = 2000.5 ask for families of C(V, k) / 2^p sets, above the cap 10000000"),
    ])
    def test_oversize_runs_are_refused_before_any_draw(self, argv, message, monkeypatch, capsys):
        """Each size is refused by its field or cap before a stream is opened, a
        group is built, a binomial is finished or a subset is enumerated."""
        def refuse(*args, **kwargs):
            raise AssertionError("drew or enumerated before refusing")

        for owner, name in ((harness, "philox_stream"), (dilation, "philox_stream"),
                            (dilation, "block_permutations"), (core.math, "comb"),
                            (core.itertools, "combinations")):
            monkeypatch.setattr(owner, name, refuse)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err == f"error: {message}\n"

    def test_config_file_fields_get_the_same_checks(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"subcommand": "dilate", "trials": -1}')
        assert main(["dilate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: field 'trials' must be at least 0, got -1\n"
        with pytest.raises(ValueError, match="field 'trials'"):
            load_config(str(path))

    def test_p_coeffs_take_one_conversion_from_flags_and_files(self, tmp_path, capsys):
        assert main(["crossover", "--p-coeffs", "0,1"]) == 0
        want = capsys.readouterr()
        path = tmp_path / "cfg.json"
        for value in ("0,1", [0, 1], ["0", "1.0"]):
            path.write_text(json.dumps({"subcommand": "crossover", "p_coeffs": value}))
            assert load_config(str(path)).p_coeffs == (0.0, 1.0)
            assert main(["crossover", "--config", str(path)]) == 0
            assert capsys.readouterr() == want
        for value in ("0,x", [0, "x"], 3, ""):
            path.write_text(json.dumps({"subcommand": "crossover", "p_coeffs": value}))
            assert main(["crossover", "--config", str(path)]) == 2
            assert capsys.readouterr().err == (
                f"error: field 'p_coeffs' must be comma-separated numbers, got {value!r}\n")

    def test_wtrace_reports_its_worst_drop_on_stderr_only(self, capsys):
        code, header, rows = execute(
            ExperimentConfig(subcommand="wtrace", queries=4, trials=3, seed=2)
        )
        capsys.readouterr()
        assert main(["wtrace", "--queries", "4", "--trials", "3", "--seed", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == render_csv(header, rows)
        worst = max(r[2] for r in rows if r[2] != "")
        bound = rows[0][3]
        assert captured.err == (
            f"W trace: worst drop {worst:.6g} against sqrt(l_max) = {bound:.6g} "
            f"(slack {bound - worst:+.3g})\n"
        )
        assert main(["wtrace", "--queries", "0"]) == 0
        assert capsys.readouterr().err == ""

    def test_main_stdout_csv(self, capsys):
        code = main(["crossover", "--alpha", "0.25", "--variant", "uniform"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("n,log_upper,log_lower")
        assert "crossover at n = 2" in captured.err


def test_run_paths_build_no_subset_or_permutation(monkeypatch):
    """The verifier and the dilation carry instances as incidence rows and sigmas
    as image rows: building a `Subset` on their run paths raises, and no module
    of the package binds a `Permutation` (the 1-based class lives in the tests)."""
    modules = [module for name, module in sys.modules.items() if name.split(".")[0] == "permlab"]
    assert len(modules) > 1 and not any(hasattr(module, "Permutation") for module in modules)

    def refuse(self):
        raise RuntimeError(f"a {type(self).__name__} was built on a run path")

    monkeypatch.setattr(Subset, "__post_init__", refuse)
    configs = (
        (dict(subcommand="verify", n=2, exhaustive_no=True), 1, 448),
        (dict(subcommand="verify", n=3, trials=4), 1, 4),
        (dict(subcommand="dilate", n=1, queries=2, trials=3), 0, 9),
        (dict(subcommand="dilate", n=2, queries=1, tau_samples=4), 0, 2),
    )
    for fields, want_code, want_rows in configs:
        code, _, rows = execute(ExperimentConfig(**fields))
        assert (code, len(rows)) == (want_code, want_rows)
    for criterion in (suite.criterion_03_test_i_perfection, suite.criterion_04_dilation):
        assert criterion(42).passed


def test_bench_e2e_script_times_one_command_on_two_checkouts():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "bench_e2e.py"), str(root), str(root),
         "--repeat", "2", "--command", "relation --V 6 --kx 2 --ky 3 --out ignored.csv"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, row = csv.reader(proc.stdout.splitlines())
    assert header == ["command", "base_median_s", "base_q1_s", "base_q3_s", "change_median_s",
                      "change_q1_s", "change_q3_s", "change_faster_pairs", "pairs", "same_output"]
    assert row[0] == "relation --V 6 --kx 2 --ky 3 --out ignored.csv"
    base_q1, base_median, base_q3 = float(row[2]), float(row[1]), float(row[3])
    assert 0 < base_q1 <= base_median <= base_q3
    assert 0 <= int(row[7]) <= 2 and row[8:] == ["2", "True"]
    assert not (root / "ignored.csv").exists()


def test_bench_e2e_script_times_tier1_once_per_side(monkeypatch, capsys):
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("bench_e2e", root / "scripts" / "bench_e2e.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    ran = []

    def run_once(checkout, argv):
        ran.append((checkout, argv))
        return real_run_once(checkout, argv)

    real_run_once = bench.run_once
    monkeypatch.setattr(bench, "run_once", run_once)
    # a trivial interpreter run stands in for the test suite; it prints its own
    # timing, as pytest does, so only the exit statuses are compared
    monkeypatch.setattr(bench, "TIER1_ARGS", ("-c", "import time; print(time.time())"))
    bench.main([str(root), str(root), "--repeat", "1", "--command", "relation --V 6", "--tier1"])
    header, relation, tier1 = csv.reader(capsys.readouterr().out.splitlines())
    assert relation[0] == "relation --V 6" and relation[8:] == ["1", "True"]
    assert tier1[0] == "tier1" and tier1[8:] == ["1", "True"]
    assert float(tier1[1]) > 0 and float(tier1[4]) > 0
    assert [argv for _, argv in ran] == [["-m", "permlab", "relation", "--V", "6"]] * 2 + [
        ["-c", "import time; print(time.time())"]] * 2


def test_traffic_script_lists_the_functions_a_command_never_enters(monkeypatch, capsys):
    root = Path(__file__).resolve().parent.parent
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts scripts/ on it
    spec = importlib.util.spec_from_file_location("traffic", root / "scripts" / "traffic.py")
    traffic = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traffic)
    traffic.main(["--command", "relation --V 6"])
    assert sys.getprofile() is None
    *names, total = capsys.readouterr().out.splitlines()
    missed = {line.split()[0] for line in names}
    # relation runs through execute and run_relation, never through run_verify
    assert "harness.run_verify" in missed and "harness.load_config" in missed
    assert not {"harness.execute", "harness.run_relation", "adversary.relation_stats"} & missed
    assert all(int(line.split()[1]) >= 2 for line in names)
    assert total.startswith(f"{len(names)} of ") and "never entered" in total
