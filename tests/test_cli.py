import argparse
import json
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cournotlab import bifurcation, cli, spectral
from cournotlab.cli import COMMANDS, _build_parser, main
from cournotlab.config import (
    KEY_ORDER, KEY_SPECS, NON_EXPERIMENT_KEYS, RunConfig, parse_config, parse_config_text,
)
from cournotlab.dynamics import default_initial_history
from cournotlab.errors import ConfigError
from cournotlab.model import DelayConfig, MarketParams, simulate

SEC4_FLAGS = ["--n", "4", "--delta", "0.4", "--a0", "2", "--a1", "2.5", "--b", "1"]

FLOAT_17 = re.compile(r"-?\d\.\d{16}e[+-]\d{2,3}$")


def emit(cfg):
    """Config text of every set key in canonical order, one per line."""
    # str() of a float is its shortest round-trip form
    return "".join(
        f"{key}={cfg.values[key]}\n" for key in KEY_ORDER if cfg.values.get(key) is not None
    )


class TestConfigParsing:
    def test_running_example_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n=4\ndelta=0.4\nalpha=1.0\na0=2\na1=2.5\nb=1\n")
        cfg = parse_config(path)
        assert cfg.get("n") == 4
        assert cfg.get("delta") == 0.4
        assert cfg.get("a1") == 2.5
        assert cfg.get("transient") == 2000  # default preserved

    def test_round_trip(self):
        cfg = RunConfig.with_defaults()
        cfg.set("n", 4)
        cfg.set("delta", 0.4)
        cfg.set("a0", 2.0)
        cfg.set("a1", 2.5)
        cfg.set("alpha_min", 1.0 + 1e-13)
        again = parse_config_text(emit(cfg))
        assert again == cfg

    def test_duplicate_key_last_wins_with_warning(self, capsys):
        cfg = parse_config_text("alpha=1.0\nalpha=1.3\n")
        assert cfg.get("alpha") == 1.3
        assert "duplicate key 'alpha'" in capsys.readouterr().err

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match=":2"):
            parse_config_text("n=4\nbogus=1\n")

    def test_malformed_value_reports_line(self):
        with pytest.raises(ConfigError, match=":1"):
            parse_config_text("n=four\n")

    def test_echo_keeps_canonical_order_without_execution_keys(self):
        cfg = RunConfig({"workers": 2, "tau0": 3, "out": "x.csv", "n": 4, "alpha": 1.0 + 1e-13})
        assert list(cfg.echo().items()) == [("n", 4), ("alpha", 1.0 + 1e-13), ("tau0", 3)]

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# header\n\nn=4  # inline\n")
        assert cfg.get("n") == 4

    def test_out_of_range_delta_fails_at_execution(self, capsys):
        code = main(["equilibria", "--n", "4", "--delta", "1.2",
                     "--a0", "2", "--a1", "2.5", "--b", "1"])
        assert code == 2
        assert "delta" in capsys.readouterr().err

    def test_missing_config_file(self, capsys, tmp_path):
        code = main(["equilibria", "--config", str(tmp_path / "absent.cfg")])
        assert code == 2
        assert "config" in capsys.readouterr().err

    def test_line_without_equals_exits_two_with_its_line(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n=4\ndelta 0.4\n")
        assert main(["equilibria", "--config", str(path)]) == 2
        assert f"{path}:2" in capsys.readouterr().err

    def test_removed_coarse_points_key_exits_two(self, capsys, tmp_path):
        path = tmp_path / "old.cfg"
        path.write_text("n=4\ncoarse_points=200\n")
        assert main(["equilibria", "--config", str(path)]) == 2
        assert "coarse_points" in capsys.readouterr().err
        assert main(["equilibria", *SEC4_FLAGS, "--coarse-points", "200"]) == 2


class TestParser:
    def test_built_once(self):
        assert _build_parser() is _build_parser()

    def test_bad_flag_after_a_good_call_exits_two(self, capsys):
        assert main(["equilibria", *SEC4_FLAGS]) == 0
        assert main(["equilibria", *SEC4_FLAGS, "--bogus", "1"]) == 2
        assert "--bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, prefix", [
        (["ns-curve", "--n", "4", "--delt", "0.4", "--a0", "2", "--a1", "2.5", "--b", "1",
          "--tau0", "5", "--tau1", "3", "--tau2", "3"], "--delt"),
        (["simulate", *SEC4_FLAGS, "--alph", "1.3", "--step", "3"], "--alph"),
    ])
    def test_flag_prefix_is_not_taken_for_the_flag(self, capsys, argv, prefix):
        # --delt is a prefix of --delta only, --alph of --alpha and --step
        # of --steps; each must be spelled in full
        assert main(argv) == 2
        out = capsys.readouterr()
        assert prefix in out.err and out.out == ""


class TestSubcommands:
    def test_equilibria_json(self, capsys):
        assert main(["equilibria", *SEC4_FLAGS]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["q0_star"] == pytest.approx(0.9375, abs=1e-12)
        assert payload["q1_star"] == pytest.approx(0.6640625, abs=1e-12)
        assert payload["q_star"] == pytest.approx(0.78125, abs=1e-12)
        assert payload["assumptions"]["a1_holds"] is True

    def test_boundary_spectrum_requires_first_assumption(self, capsys):
        code = main(["spectrum", "--which", "boundary", "--n", "4", "--delta", "0.4",
                     "--a0", "1", "--a1", "2.5", "--b", "1"])
        assert code == 2
        assert "A.1" in capsys.readouterr().err

    def test_equilibria_without_the_first_assumption(self, capsys):
        assert main(["equilibria", "--n", "4", "--delta", "0.4", "--a0", "1", "--a1", "2.5",
                     "--b", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["assumptions"]["a1_holds"] is False
        assert payload["q0_star"] is None and payload["q1_star"] is None
        assert payload["e_plus"] is None and "e_plus_residual" not in payload

    @pytest.mark.parametrize("which", ["reduced", "no-public-firm"])
    def test_spectrum_selector(self, capsys, which):
        p = MarketParams(b=1.0, delta=0.4, alpha=1.2, n=4, a0=2.0, a1=2.5)
        d = DelayConfig(3, 5, 5)
        assert main(["spectrum", "--which", which, *SEC4_FLAGS, "--alpha", "1.2",
                     "--tau0", "3", "--tau1", "5", "--tau2", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        if which == "reduced":
            want = spectral.poly_roots(spectral.reduced_char_poly(spectral.epsilon_triple(p), d))
        else:
            want = spectral.no_public_firm_spectrum(p, d.tau2)
        assert (sorted((r["re"], r["im"]) for r in payload["roots"])
                == sorted((z.real, z.imag) for z in want.roots.tolist()))
        assert payload["classification"] == want.classification.value
        assert payload["max_modulus"] == want.max_modulus

    def test_unknown_spectrum_selector_exits_two(self, capsys):
        assert main(["spectrum", "--which", "interior", *SEC4_FLAGS]) == 2
        assert "interior" in capsys.readouterr().err

    @pytest.mark.parametrize("which, market, cause", [
        ("interior", SEC4_FLAGS, "unknown spectrum selector 'interior'"),
        ("boundary", ["--n", "4", "--delta", "0.4", "--a0", "1", "--a1", "2.5"], "A.1 fail"),
        ("positive", ["--n", "2", "--delta", "0.5", "--a0", "2", "--a1", "0.5"], "A.2 fail"),
        ("reduced", ["--n", "2", "--delta", "0.5", "--a0", "2", "--a1", "0.5"], "A.2 fail"),
        ("no-public-firm", ["--n", "1", "--delta", "0.5", "--a0", "1", "--a1", "1"], "n >= 2"),
    ])
    def test_rejected_spectrum_exits_two_naming_its_cause(self, capsys, which, market, cause):
        assert main(["spectrum", "--which", which, *market, "--tau2", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and cause in err

    def test_spectrum_json_schema(self, capsys):
        assert main(["spectrum", "--which", "boundary", *SEC4_FLAGS]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classification"] == "Saddle"
        assert {"re", "im", "modulus"} <= set(payload["roots"][0])
        assert payload["roots"][0]["modulus"] == pytest.approx(1.75, abs=1e-9)

    def test_critical_alpha_json(self, capsys):
        code = main(["critical-alpha", *SEC4_FLAGS,
                     "--tau0", "3", "--tau1", "5", "--tau2", "5",
                     "--alpha-min", "1.0", "--alpha-max", "1.5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "NeimarkSacker"
        assert 1.26 <= payload["alpha"] <= 1.30

    def test_no_crossing_exits_three(self, capsys):
        code = main(["critical-alpha", *SEC4_FLAGS,
                     "--tau0", "2", "--tau1", "2", "--tau2", "10",
                     "--alpha-min", "0.5", "--alpha-max", "0.9"])
        assert code == 3
        assert "crossing" in capsys.readouterr().err

    def test_missing_required_key(self, capsys):
        assert main(["critical-alpha", *SEC4_FLAGS]) == 2
        assert "alpha_min" in capsys.readouterr().err

    def test_flip_boundary_json(self, capsys):
        assert main(["flip-boundary", *SEC4_FLAGS,
                     "--tau0", "2", "--tau1", "2", "--tau2", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "Flip"
        assert payload["alpha"] == pytest.approx(32.0 / 27.0, abs=1e-9)

    def test_flip_boundary_parities(self, capsys):
        # tau0 + tau1 = 16 is even and tau2 = 5 is odd
        assert main(["flip-boundary", *SEC4_FLAGS,
                     "--tau0", "9", "--tau1", "7", "--tau2", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sum_parity"] == 0 and payload["tau2_parity"] == 1
        assert payload["alpha"] == pytest.approx(16.0 / 9.0, abs=1e-9)

    def test_ns_curve_csv(self, tmp_path):
        out = tmp_path / "ns.csv"
        assert main(["ns-curve", *SEC4_FLAGS,
                     "--tau0", "5", "--tau1", "3", "--tau2", "3",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "theta,eps1,alpha,residual"
        first = lines[header_idx + 1].split(",")
        assert FLOAT_17.match(first[0])
        assert any(l.startswith("# n=4") for l in lines)

    def test_stability_region_csv(self, tmp_path):
        out = tmp_path / "region.csv"
        assert main(["stability-region", "--n", "4", "--a0", "2", "--a1", "2.5", "--b", "1",
                     "--delta-min", "0.1", "--delta-max", "0.6",
                     "--delta-steps", "6", "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "delta,alpha_max,feasible"
        assert len(lines) == 7
        assert lines[1].endswith(",true")

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_stability_region_empty_grid_exits_two(self, capsys, steps):
        code = main(["stability-region", "--n", "4", "--a0", "2", "--a1", "2.5", "--b", "1",
                     "--delta-min", "0.1", "--delta-max", "0.6", "--delta-steps", steps])
        assert code == 2
        out = capsys.readouterr()
        assert "delta_steps" in out.err and out.out == ""

    @pytest.mark.parametrize("key", ["delta_min", "delta_max"])
    @pytest.mark.parametrize("value", ["0", "1", "nan"])
    def test_stability_region_bound_outside_unit_interval_exits_two(self, capsys, key, value):
        bounds = {"delta_min": "0.1", "delta_max": "0.5", key: value}
        code = main(["stability-region", "--n", "4", "--a0", "2", "--a1", "2.5", "--b", "1",
                     "--delta-min", bounds["delta_min"], "--delta-max", bounds["delta_max"]])
        assert code == 2
        out = capsys.readouterr()
        assert key in out.err and out.out == ""

    def test_stability_region_needs_no_point_delta(self, capsys):
        # the sweep grid defines delta; infeasible rows carry nan
        assert main(["stability-region", "--n", "4", "--b", "1",
                     "--a0", "2", "--a1", "1.5",
                     "--delta-min", "0.5", "--delta-max", "0.9",
                     "--delta-steps", "5"]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert rows[1].endswith(",true")
        assert rows[-1].endswith(",false") and ",nan," in rows[-1]

    def test_stability_region_reads_no_point_delta(self, capsys, tmp_path):
        grid = ["--delta-min", "0.1", "--delta-max", "0.9", "--delta-steps", "3"]
        assert main(["stability-region", *SEC4_FLAGS, *grid]) == 2
        assert "--delta 0.4" in capsys.readouterr().err
        out = tmp_path / "region.csv"
        assert main(["stability-region", "--n", "4", "--a0", "2", "--a1", "2.5", "--b", "1",
                     *grid, "--out", str(out)]) == 0
        echo = _echo(out.read_text())
        assert "delta" not in echo and echo["delta_min"] == "0.1"

    def test_simulate_csv(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", *SEC4_FLAGS, "--alpha", "1.0",
                     "--steps", "20", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert "# diverged=false" in lines
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "t,q0,q1,q2,q3,q4"
        assert len(data) == 22

    def test_simulate_csv_across_write_pieces(self, tmp_path, capsys):
        # more rows than three pieces hold: the file and stdout carry the
        # same bytes, and every row reads back as the simulated state
        steps = 3 * cli.CSV_CHUNK_ROWS + 6
        argv = ["simulate", *SEC4_FLAGS, "--alpha", "1.2", "--tau0", "2", "--steps", str(steps)]
        out = tmp_path / "sim.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert main(argv) == 0
        text = out.read_text()
        assert capsys.readouterr().out == text
        assert text.endswith("\n") and not text.endswith("\n\n")
        data = [l for l in text.splitlines() if not l.startswith("#")][1:]
        market = MarketParams(b=1.0, delta=0.4, alpha=1.2, n=4, a0=2.0, a1=2.5)
        delays = DelayConfig(tau0=2)
        traj = simulate(market, delays, default_initial_history(market, delays), steps)
        assert len(data) == steps + 1
        for k, line in enumerate(data):
            t, *q = line.split(",")
            assert int(t) == k and all(FLOAT_17.match(v) for v in q)
            assert [float(v) for v in q] == traj.outputs[k].tolist()

    def test_phase_portrait_csv(self, tmp_path):
        out = tmp_path / "pp.csv"
        assert main(["phase-portrait", *SEC4_FLAGS, "--alpha", "1.0",
                     "--transient", "200", "--samples", "10",
                     "--out", str(out)]) == 0
        data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert data[0] == "t,q0,q1"
        assert len(data) == 11

    def test_lyapunov_json(self, capsys):
        code = main(["lyapunov", *SEC4_FLAGS, "--alpha", "1.0",
                     "--tau0", "5", "--tau1", "3", "--tau2", "3",
                     "--lyap-iters", "4000", "--lyap-transient", "500"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lle"] < 0.0
        assert set(payload) == {"config", "lle", "iters", "transient"}

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_simulate_bad_blowup_exits_two(self, capsys, value):
        code = main(["simulate", *SEC4_FLAGS, "--alpha", "1.66",
                     "--tau0", "5", "--tau1", "3", "--tau2", "3",
                     "--steps", "700", "--blowup", value])
        assert code == 2
        out = capsys.readouterr()
        assert "blowup" in out.err and out.out == ""

    @pytest.mark.parametrize("value", ["0", "-5", "nan"])
    def test_lyapunov_bad_blowup_exits_two(self, capsys, value):
        code = main(["lyapunov", *SEC4_FLAGS, "--alpha", "1.0", "--blowup", value])
        assert code == 2
        out = capsys.readouterr()
        assert "blowup" in out.err and out.out == ""

    @pytest.mark.parametrize("command, flags", [
        ("simulate", ["--steps", "20"]),
        ("lyapunov", ["--lyap-iters", "300", "--lyap-transient", "100"]),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_perturbation_exits_two(self, capsys, command, flags, value):
        code = main([command, *SEC4_FLAGS, "--alpha", "1.0", *flags, "--perturbation", value])
        assert code == 2
        out = capsys.readouterr()
        assert "perturbation" in out.err and out.out == ""

    def test_lyapunov_negative_transient_exits_two(self, capsys):
        code = main(["lyapunov", *SEC4_FLAGS, "--alpha", "1.0",
                     "--tau0", "5", "--tau1", "3", "--tau2", "3",
                     "--lyap-iters", "3000", "--lyap-transient", "-50"])
        assert code == 2
        out = capsys.readouterr()
        assert "transient" in out.err and out.out == ""

    def test_removed_renorm_interval_key_exits_two(self, capsys, tmp_path):
        # the tangent is renormalized in fixed 64-step blocks: no cadence to set
        flags = ["lyapunov", *SEC4_FLAGS, "--alpha", "1.0", "--lyap-iters", "300",
                 "--lyap-transient", "100"]
        assert main([*flags, "--renorm-interval", "4"]) == 2
        out = capsys.readouterr()
        assert "--renorm-interval" in out.err and out.out == ""
        path = tmp_path / "old.cfg"
        path.write_text("renorm_interval=1\n")
        assert main([*flags, "--config", str(path)]) == 2
        out = capsys.readouterr()
        assert "renorm_interval" in out.err and out.out == ""

    def test_lyapunov_divergence_exits_three(self, capsys):
        code = main(["lyapunov", *SEC4_FLAGS, "--alpha", "1.65",
                     "--tau0", "5", "--tau1", "3", "--tau2", "3"])
        assert code == 3


    def test_non_finite_alpha_exits_two(self, capsys):
        code = main(["lyapunov", *SEC4_FLAGS, "--alpha", "nan",
                     "--tau0", "3", "--tau1", "5", "--tau2", "5"])
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_unknown_policy_exits_two(self, capsys):
        code = main(["bifurcation-diagram", *SEC4_FLAGS, "--alpha-min", "1.0",
                     "--alpha-max", "1.1", "--alpha-steps", "2", "--policy", "Sideways"])
        assert code == 2
        assert "policy" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, key", [
        (["--lyap-iters", "100", "--lyap-transient", "200"], "lyap_iters"),
        (["--lyap-transient", "-1"], "lyap_transient"),
        (["--perturbation", "nan"], "perturbation"),
        (["--blowup", "-1"], "blowup"),
        (["--samples", "1"], "samples"),
    ])
    def test_bad_sweep_spec_exits_two(self, capsys, flags, key):
        # every cell of this sweep escapes, so no cell would reach the
        # Lyapunov stage and expose a bad key there
        code = main(["bifurcation-diagram", *SEC4_FLAGS, "--tau0", "2", "--tau1", "2",
                     "--tau2", "10", "--alpha-min", "1.5", "--alpha-max", "1.55",
                     "--alpha-steps", "2", *flags])
        assert code == 2
        out = capsys.readouterr()
        assert key in out.err and out.out == ""


# floats whose formatting is easy to get wrong: both zeros, nan, both
# infinities, the extremes and subnormals
SPECIAL_FLOATS = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
    2.2250738585072014e-308, 1.7976931348623157e308, 1.0, -1.0, 0.1,
]


def _row_tuple_text(columns, rows):
    """The data lines as row-tuple formatting writes them: one %-format
    per row, "%.16e" for a float column and "%s" for any other."""
    row_format = ",".join("%.16e" if typ is float else "%s" for typ in columns.values())
    return "".join(row_format % row + "\n" for row in rows)


class TestCsvEmission:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.floats(allow_subnormal=True) | st.sampled_from(SPECIAL_FLOATS), max_size=60),
        st.integers(1, 4),
        st.integers(0, 3),
    )
    def test_each_entry_formats_as_its_float(self, values, width, repeats):
        # repeated values and repeated rows share their strings
        values = (values * (repeats + 1))[: len(values) * (repeats + 1) // width * width]
        array = np.array(values, dtype=float).reshape(-1, width).T
        text = cli._format_floats(array)
        assert text == [["%.16e" % x for x in column] for column in array.tolist()]

    def test_both_zero_signs_in_one_piece(self):
        # 0.0 == -0.0, so a memo keyed on the float value prints one sign twice
        cfg = RunConfig({})
        columns = {"t": int, "q": float}
        values = [0.0, -0.0, 1.5, -0.0, 0.0]
        chunks = list(cli._csv_chunks(cfg, columns, [range(5), np.array(values)]))
        assert chunks == ["t,q\n", _row_tuple_text(columns, zip(range(5), values))]
        lines = chunks[1].splitlines()
        assert lines[0] == "0,0.0000000000000000e+00"
        assert lines[1] == "1,-0.0000000000000000e+00"

    def test_flat_table_over_several_pieces_matches_row_tuples(self):
        # every private column holds the mean, as a simulate row from a
        # start whose private outputs agree does
        rows = 2 * cli.CSV_CHUNK_ROWS + 7
        rng = np.random.default_rng(13)
        q0 = rng.normal(size=rows)
        mean = np.round(rng.normal(size=rows), 3)  # also repeats across rows
        columns = {"t": int, "q0": float, "q1": float, "q2": float, "q3": float}
        table = [range(5, 5 + rows), q0, mean, mean, mean]
        chunks = list(cli._csv_chunks(RunConfig({"n": 3}), columns, table, ["# diverged=false"]))
        assert len(chunks) == 4
        assert chunks[0] == "# n=3\n# diverged=false\nt,q0,q1,q2,q3\n"
        tuples = zip(range(5, 5 + rows), q0.tolist(), mean.tolist(), mean.tolist(), mean.tolist())
        assert "".join(chunks[1:]) == _row_tuple_text(columns, tuples)

    def test_zero_row_table_writes_comments_and_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        cfg = RunConfig({"n": 4, "out": str(out)})
        columns = {"alpha": float, "sample_index": int, "attractor_type": str}
        cli._write(cfg, cli._csv_chunks(cfg, columns, [np.empty(0), range(0), []], ["# x=1"]))
        assert out.read_text() == "# n=4\n# x=1\nalpha,sample_index,attractor_type\n"


class TestDiagramDeterminism:
    DIAGRAM_FLAGS = [
        "bifurcation-diagram", *SEC4_FLAGS,
        "--tau0", "2", "--tau1", "2", "--tau2", "10",
        "--alpha-min", "1.0", "--alpha-max", "1.3", "--alpha-steps", "5",
        "--transient", "400", "--samples", "20",
        "--lyap-iters", "800", "--lyap-transient", "200",
    ]

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*self.DIAGRAM_FLAGS, "--out", str(a)]) == 0
        assert main([*self.DIAGRAM_FLAGS, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_does_not_change_output(self, tmp_path):
        serial, parallel = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert main([*self.DIAGRAM_FLAGS, "--workers", "1", "--out", str(serial)]) == 0
        assert main([*self.DIAGRAM_FLAGS, "--workers", "2", "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_schema_and_float_format(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main([*self.DIAGRAM_FLAGS, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "alpha,sample_index,q0,lle,attractor_type"
        assert len(data) == 1 + 5 * 20
        cells = data[1].split(",")
        assert FLOAT_17.match(cells[0]) and FLOAT_17.match(cells[2])
        assert cells[4] == "FixedPoint" or cells[4].startswith("Period")
        # config echo excludes execution-only keys
        assert not any(l.startswith("# workers") or l.startswith("# out") for l in lines)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "n=4\ndelta=0.4\nalpha=1.0\na0=2\na1=2.5\nb=1\n"
            "tau0=2\ntau1=2\ntau2=10\nalpha_min=1.0\nalpha_max=1.3\n"
            "alpha_steps=3\ntransient=300\nsamples=10\n"
            "lyap_iters=600\nlyap_transient=200\n"
        )
        base, override = tmp_path / "x.csv", tmp_path / "y.csv"
        assert main(["bifurcation-diagram", "--config", str(cfg), "--out", str(base)]) == 0
        assert main(["bifurcation-diagram", "--config", str(cfg),
                     "--samples", "5", "--out", str(override)]) == 0
        rows_base = [l for l in base.read_text().splitlines() if not l.startswith("#")]
        rows_override = [l for l in override.read_text().splitlines() if not l.startswith("#")]
        assert len(rows_base) == 1 + 3 * 10
        assert len(rows_override) == 1 + 3 * 5


# one valid value for every key, shared by all subcommands; (a, c0, c)
# agree with the gaps (a0, a1)
SHARED_CONFIG = """\
n=4
delta=0.4
alpha=1.0
b=1
a0=2
a1=2.5
a=3
c0=1
c=0.5
tau0=5
tau1=3
tau2=3
which=positive
steps=20
alpha_min=1.0
alpha_max=1.5
alpha_steps=3
delta_min=0.1
delta_max=0.6
delta_steps=6
transient=50
samples=10
policy=FreshPerturbed
perturbation=0.01
blowup=1e6
lyap_iters=600
lyap_transient=200
workers=1
out=unused.out
"""


# subcommands whose results do not depend on the market's adjustment speed
ALPHA_FREE = (
    "equilibria", "flip-boundary", "ns-curve", "critical-alpha", "stability-region",
    "bifurcation-diagram",
)


def _subparsers() -> dict:
    action = next(a for a in _build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _echo(text: str) -> dict:
    if text.startswith("{"):
        return json.loads(text)["config"]
    pairs = (ln[2:].split("=", 1) for ln in text.splitlines()
             if ln.startswith("# ") and not ln.startswith("# diverged="))
    return dict(pairs)


class TestCommandTable:
    def test_every_key_is_read_by_some_subcommand(self):
        read = set().union(*(keys for _, keys in COMMANDS.values()))
        assert read == {key for key, _ in KEY_SPECS}

    @pytest.mark.parametrize("name", COMMANDS)
    def test_subparser_accepts_exactly_its_keys(self, name):
        options = {opt for action in _subparsers()[name]._actions
                   for opt in action.option_strings} - {"-h", "--help"}
        flags = {"--" + key.replace("_", "-") for key in COMMANDS[name][1]}
        assert options == flags | {"--config"}

    @pytest.mark.parametrize("name", COMMANDS)
    def test_echo_holds_only_the_subcommands_keys(self, name, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(SHARED_CONFIG)
        out = tmp_path / "result"
        assert main([name, "--config", str(path), "--out", str(out)]) == 0
        echo = _echo(out.read_text())
        assert set(echo) == COMMANDS[name][1] - NON_EXPERIMENT_KEYS

    def test_unread_flag_exits_two(self, capsys):
        # critical-alpha runs no orbit, so the flag of simulate is not offered
        code = main(["critical-alpha", *SEC4_FLAGS, "--tau0", "3", "--tau1", "5",
                     "--tau2", "5", "--alpha-min", "1.0", "--alpha-max", "1.5",
                     "--steps", "8"])
        assert code == 2
        assert "--steps" in capsys.readouterr().err
        assert main(["equilibria", *SEC4_FLAGS, "--tau0", "3"]) == 2

    def test_removed_theta_points_key_exits_two(self, capsys, tmp_path):
        # ns_boundary roots a polynomial: there is no theta grid to size
        path = tmp_path / "old.cfg"
        path.write_text("theta_points=64\n")
        flags = [*SEC4_FLAGS, "--tau0", "5", "--tau1", "3", "--tau2", "3"]
        assert main(["ns-curve", "--config", str(path), *flags]) == 2
        out = capsys.readouterr()
        assert "theta_points" in out.err and out.out == ""
        assert main(["ns-curve", *flags, "--theta-points", "4096"]) == 2
        out = capsys.readouterr()
        assert "--theta-points" in out.err and out.out == ""

    def test_ns_curve_header_has_no_theta_points(self, tmp_path):
        out = tmp_path / "ns.csv"
        assert main(["ns-curve", *SEC4_FLAGS, "--tau0", "5", "--tau1", "3", "--tau2", "3",
                     "--out", str(out)]) == 0
        assert not any(line.startswith("# theta_points") for line in out.read_text().splitlines())

    def test_shared_config_key_is_neither_applied_nor_echoed(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n=4\ndelta=0.4\na0=2\na1=2.5\nb=1\nlyap_iters=600\n")
        assert main(["equilibria", "--config", str(path)]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config == {"n": 4, "delta": 0.4, "b": 1.0, "a0": 2.0, "a1": 2.5}

    @pytest.mark.parametrize("name", ALPHA_FREE)
    def test_alpha_is_neither_a_flag_nor_echoed(self, capsys, tmp_path, name):
        assert "alpha" not in COMMANDS[name][1]
        assert main([name, *SEC4_FLAGS, "--alpha", "1.3"]) == 2
        assert "--alpha" in capsys.readouterr().err
        outputs = []
        for alpha in ("0.3", "1.7"):
            path = tmp_path / f"run-{alpha}.cfg"
            path.write_text(SHARED_CONFIG.replace("\nalpha=1.0\n", f"\nalpha={alpha}\n"))
            out = tmp_path / f"result-{alpha}"
            assert main([name, "--config", str(path), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert "alpha" not in _echo(outputs[0].decode())

    @pytest.mark.parametrize("flags, key", [
        (["--transient", "0"], "transient"),
        (["--samples", "0"], "samples"),
        (["--perturbation", "nan"], "perturbation"),
        (["--blowup", "0"], "blowup"),
    ])
    def test_bad_phase_portrait_orbit_exits_two(self, capsys, flags, key):
        code = main(["phase-portrait", *SEC4_FLAGS, "--alpha", "1.0", *flags])
        assert code == 2
        out = capsys.readouterr()
        assert key in out.err and out.out == ""


class FakePool:
    """Stands in for ProcessPoolExecutor: records the pool size and maps
    the cells in this process, so no worker is ever started."""

    sizes: list = []

    def __init__(self, max_workers):
        FakePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, cells):
        return map(fn, cells)


class TestWorkers:
    FLAGS = [
        "bifurcation-diagram", *SEC4_FLAGS, "--tau0", "2", "--tau1", "2", "--tau2", "10",
        "--alpha-min", "1.0", "--alpha-max", "1.2", "--alpha-steps", "3",
        "--transient", "100", "--samples", "10", "--lyap-iters", "300", "--lyap-transient", "100",
    ]

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_workers_below_one_exits_two(self, capsys, value):
        assert main([*self.FLAGS, "--workers", value]) == 2
        out = capsys.readouterr()
        assert "workers" in out.err and out.out == ""

    @pytest.mark.parametrize("workers, cpus, size", [
        (100000, 64, 3),  # bounded by the cell count
        (100000, 2, 2),  # bounded by the CPU count
        (2, 64, 2),
    ])
    def test_pool_size_is_bounded(self, monkeypatch, tmp_path, workers, cpus, size):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(FakePool, "sizes", [])
        serial, pooled = tmp_path / "w1.csv", tmp_path / "wn.csv"
        assert main([*self.FLAGS, "--workers", "1", "--out", str(serial)]) == 0
        assert main([*self.FLAGS, "--workers", str(workers), "--out", str(pooled)]) == 0
        assert FakePool.sizes == [size]
        assert serial.read_bytes() == pooled.read_bytes()


GOLDEN = pathlib.Path(__file__).parent / "data"


def _diagram_rows(path):
    """(alpha, sample_index, q0, lle, label) of each data row of a diagram CSV."""
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
    return [(float(a), int(k), float(q0), float(lle), label) for a, k, q0, lle, label in rows]


class TestGoldenDiagrams:
    """Fresh-policy diagrams.  ``<name>_blocked.csv`` pins the bytes of the
    aggregate kernel, its tangent renormalized in 64-step blocks, for every
    worker count.  Two older files stay as tolerance oracles: ``<name>``
    holds the bytes the per-firm integration wrote, and
    ``<name>_aggregate.csv`` those of the kernel renormalizing every step,
    which differ only in the last digits of the exponents."""

    FLAGS = {
        # the criterion-12 configuration
        "criterion12_diagram.csv": [
            *SEC4_FLAGS, "--tau0", "2", "--tau1", "2", "--tau2", "10",
            "--alpha-min", "1.0", "--alpha-max", "1.3", "--alpha-steps", "7",
            "--transient", "500", "--samples", "30",
            "--lyap-iters", "1000", "--lyap-transient", "200",
        ],
        # n = 9 private firms (pairwise row sums), two Period2 cells, an
        # aperiodic one, one that escapes after its samples (lle nan) and
        # three that escape within them
        "n9_escape_diagram.csv": [
            "--n", "9", "--delta", "0.2", "--a0", "2", "--a1", "2.5", "--b", "1.3",
            "--tau0", "2", "--tau1", "2", "--tau2", "4",
            "--alpha-min", "1.0", "--alpha-max", "2.5", "--alpha-steps", "7",
            "--transient", "300", "--samples", "30",
            "--lyap-iters", "900", "--lyap-transient", "200",
        ],
    }

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    @pytest.mark.parametrize("name", sorted(FLAGS))
    def test_output_bytes_are_the_golden_file(self, tmp_path, name, workers):
        out = tmp_path / name
        argv = ["bifurcation-diagram", *self.FLAGS[name], "--workers", workers, "--out", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == (GOLDEN / name.replace(".csv", "_blocked.csv")).read_bytes()

    @pytest.mark.parametrize("name", sorted(FLAGS))
    def test_per_step_file_differs_only_in_exponent_rounding(self, name):
        # the logged stretches telescope: the cadence moves only rounding
        lines, ref_lines = [(GOLDEN / name.replace(".csv", suffix)).read_text().splitlines()
                            for suffix in ("_blocked.csv", "_aggregate.csv")]
        assert len(lines) == len(ref_lines)
        for line, ref in zip(lines, ref_lines):
            if line.startswith(("#", "alpha,")):  # the echo and the header
                assert line == ref
                continue
            fields, ref_fields = line.split(","), ref.split(",")
            assert fields[:3] + fields[4:] == ref_fields[:3] + ref_fields[4:]
            lle, ref_lle = float(fields[3]), float(ref_fields[3])
            assert math.isnan(lle) == math.isnan(ref_lle)
            assert math.isnan(ref_lle) or abs(lle - ref_lle) <= 1e-13

    @pytest.mark.parametrize("name", sorted(FLAGS))
    def test_per_firm_file_within_tolerance(self, name):
        # same echo and labels, non-chaotic samples within 1e-12 relative,
        # exponents within 0.02
        old, new = GOLDEN / name, GOLDEN / name.replace(".csv", "_blocked.csv")
        echo = [[l for l in path.read_text().splitlines() if l.startswith("#")]
                for path in (old, new)]
        assert echo[0] == echo[1]
        rows, ref = _diagram_rows(new), _diagram_rows(old)
        assert len(rows) == len(ref)
        for (alpha, k, q0, lle, label), (*key, ref_q0, ref_lle, ref_label) in zip(rows, ref):
            assert [alpha, k, label] == [*key, ref_label]
            if label == "FixedPoint" or label.startswith("Period"):
                assert abs(q0 - ref_q0) <= 1e-12 * abs(ref_q0)
            assert math.isnan(lle) == math.isnan(ref_lle)
            assert math.isnan(ref_lle) or abs(lle - ref_lle) <= 0.02

    def test_escaping_file_holds_every_kind_of_cell(self):
        for name in ("n9_escape_diagram.csv", "n9_escape_diagram_aggregate.csv",
                     "n9_escape_diagram_blocked.csv"):
            rows = _diagram_rows(GOLDEN / name)
            cells = {(alpha, str(lle), label) for alpha, _, _, lle, label in rows}
            labels = [label for _, _, label in cells]
            assert len(cells) == 7 and labels.count("Divergent") == 3
            assert any(lle == "nan" and label != "Divergent" for _, lle, label in cells)
            assert {"Period2", "AperiodicOrQuasiperiodic"} <= set(labels)
