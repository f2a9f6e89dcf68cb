import json
import re

import pytest

from cournotlab.cli import _build_parser, main
from cournotlab.config import RunConfig, parse_config, parse_config_text
from cournotlab.errors import ConfigError

SEC4_FLAGS = ["--n", "4", "--delta", "0.4", "--a0", "2", "--a1", "2.5", "--b", "1"]

FLOAT_17 = re.compile(r"-?\d\.\d{16}e[+-]\d{2,3}$")


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
        again = parse_config_text(cfg.emit())
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
        assert main(["stability-region", *SEC4_FLAGS,
                     "--delta-min", "0.1", "--delta-max", "0.6",
                     "--delta-steps", "6", "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "delta,alpha_max,feasible"
        assert len(lines) == 7
        assert lines[1].endswith(",true")

    def test_stability_region_needs_no_point_delta(self, capsys):
        # the sweep grid defines delta; infeasible rows carry nan
        assert main(["stability-region", "--n", "4", "--b", "1",
                     "--a0", "2", "--a1", "1.5",
                     "--delta-min", "0.5", "--delta-max", "0.9",
                     "--delta-steps", "5"]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert rows[1].endswith(",true")
        assert rows[-1].endswith(",false") and ",nan," in rows[-1]

    def test_simulate_csv(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", *SEC4_FLAGS, "--alpha", "1.0",
                     "--steps", "20", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert "# diverged=false" in lines
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "t,q0,q1,q2,q3,q4"
        assert len(data) == 22

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

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_simulate_bad_blowup_exits_two(self, capsys, value):
        code = main(["simulate", *SEC4_FLAGS, "--alpha", "1.66",
                     "--tau0", "5", "--tau1", "3", "--tau2", "3",
                     "--steps", "700", "--blowup", value])
        assert code == 2
        out = capsys.readouterr()
        assert "blowup" in out.err and out.out == ""

    def test_lyapunov_negative_transient_exits_two(self, capsys):
        code = main(["lyapunov", *SEC4_FLAGS, "--alpha", "1.0",
                     "--tau0", "5", "--tau1", "3", "--tau2", "3",
                     "--lyap-iters", "3000", "--lyap-transient", "-50"])
        assert code == 2
        out = capsys.readouterr()
        assert "transient" in out.err and out.out == ""

    def test_lyapunov_divergence_exits_three(self, capsys):
        code = main(["lyapunov", *SEC4_FLAGS, "--alpha", "1.65",
                     "--tau0", "5", "--tau1", "3", "--tau2", "3"])
        assert code == 3


    def test_non_finite_alpha_exits_two(self, capsys):
        code = main(["lyapunov", *SEC4_FLAGS, "--alpha", "nan",
                     "--tau0", "3", "--tau1", "5", "--tau2", "5"])
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, key", [
        (["--lyap-iters", "100", "--lyap-transient", "200"], "lyap_iters"),
        (["--lyap-transient", "-1"], "lyap_transient"),
        (["--perturbation", "nan"], "perturbation"),
        (["--blowup", "-1"], "blowup"),
    ])
    def test_bad_sweep_spec_exits_two(self, capsys, flags, key):
        # every cell of this sweep escapes, so no cell would reach the
        # Lyapunov stage and expose a bad key there
        code = main(["bifurcation-diagram", *SEC4_FLAGS, "--tau0", "2", "--tau1", "2",
                     "--tau2", "10", "--alpha-min", "1.5", "--alpha-max", "1.55",
                     "--alpha-steps", "2", *flags])
        assert code == 2
        assert key in capsys.readouterr().err


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
