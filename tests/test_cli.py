import json
import math

import pytest

from matterslit import cli
from matterslit.cli import (
    PRESETS,
    fig4_preset,
    fig6_preset,
    main,
    run_converge,
    run_faddeeva,
    run_packet,
    run_pattern,
    run_phasediff,
)


@pytest.fixture
def fig6_small():
    """fig6 preset trimmed to a small grid and fast methods for CLI tests."""
    cfg = fig6_preset()
    cfg["methods"] = ["intuitive", "stationary_phase"]
    cfg["screen"]["count"] = 64
    del cfg["timesum"]
    return cfg


class TestPresets:
    def test_presets_validate_and_run(self):
        assert set(PRESETS) == {"fig4", "fig6"}
        converge_cfg = fig4_preset()
        assert converge_cfg["windows_s"] == sorted(converge_cfg["windows_s"])
        pattern_cfg = fig6_preset()
        assert pattern_cfg["screen"]["count"] == 1024
        assert pattern_cfg["samples_per_slit"] == 1

    def test_presets_pass_their_own_validation(self):
        # self-check: every shipped preset parses through the config layer
        from matterslit.cli import (
            _parse_geometry,
            _parse_methods,
            _parse_screen,
            _parse_species,
            _parse_timesum,
            _parse_timing,
        )

        fig6 = fig6_preset()
        _parse_species(fig6)
        _parse_geometry(fig6)
        _parse_timing(fig6)
        _parse_methods(fig6)
        assert len(_parse_screen(fig6)) == 1024
        assert _parse_timesum(fig6, required=True) is not None

        fig4 = fig4_preset()
        _parse_species(fig4)
        assert all(w > 0 for w in fig4["windows_s"])

    def test_fig4_duration_alignment(self):
        # the preset duration puts the stationary phase on an exact half turn
        from matterslit import ELECTRON, HBAR

        cfg = fig4_preset()
        leg = cfg["path"]["leg1_m"]
        tau = cfg["path"]["duration_s"]
        phi0 = 2 * ELECTRON.mass * leg**2 / (HBAR * tau)
        assert math.remainder(phi0, 2 * math.pi) == pytest.approx(math.pi, abs=1e-9)
        assert tau == pytest.approx(6.72e-13, rel=1e-4)


class TestRunPattern:
    def test_deterministic(self, fig6_small):
        first = run_pattern(fig6_small)
        second = run_pattern(fig6_small)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_round_trip_from_echo(self, fig6_small):
        envelope = run_pattern(fig6_small)
        echoed = json.loads(json.dumps(envelope))["config"]
        again = run_pattern(echoed)
        assert json.dumps(envelope, sort_keys=True) == json.dumps(again, sort_keys=True)

    def test_provenance_block_present(self, fig6_small):
        envelope = run_pattern(fig6_small)
        prov = envelope["provenance"]
        assert prov["constants"]["hbar_J_s"] == 1.054571817e-34
        assert prov["version"]
        assert set(envelope["results"]["patterns"]) == {"intuitive", "stationary_phase"}

    def test_empty_methods_rejected(self, fig6_small):
        fig6_small["methods"] = []
        with pytest.raises(ValueError, match="methods"):
            run_pattern(fig6_small)

    def test_validation_error_names_field(self, fig6_small):
        del fig6_small["geometry"]["slit1_y_m"]
        with pytest.raises(ValueError, match="geometry.slit1_y_m"):
            run_pattern(fig6_small)
        fig6_small["geometry"]["slit1_y_m"] = "wide"
        with pytest.raises(ValueError, match="geometry.slit1_y_m"):
            run_pattern(fig6_small)


class TestRunConverge:
    def test_fig4_series_shape(self):
        cfg = fig4_preset()
        cfg["windows_s"] = cfg["windows_s"][:4]
        envelope = run_converge(cfg)
        rows = envelope["results"]["series"]
        assert len(rows) == 4
        assert len(envelope["provenance"]["node_counts"]) == 4
        assert all(r["magnitude"] > 0 for r in rows)
        # normalized columns divide out the prefactor
        from matterslit import ELECTRON, time_sum_prefactor

        scale = abs(time_sum_prefactor(ELECTRON))
        for r in rows:
            assert r["magnitude_over_prefactor"] == pytest.approx(
                r["magnitude"] / scale, rel=1e-12
            )

    def test_rejects_unsorted_windows(self):
        cfg = fig4_preset()
        cfg["windows_s"] = [2e-13, 1e-13]
        with pytest.raises(ValueError, match="windows_s"):
            run_converge(cfg)


class TestRunPhasediffAndPacket:
    def test_phasediff_fig6_record(self):
        envelope = run_phasediff(fig6_preset())
        (record,) = envelope["results"]["records"]
        assert record["difference_principal_rad"] == pytest.approx(-math.pi, abs=0.02)
        assert record["significant"] is True

    def test_phasediff_sweep(self, tmp_path):
        cfg = {
            "species": "electron",
            "slit_separation_m": 2.73e-7,
            "length_m": {"linspace": [3e-6, 3e-5, 4]},
            "duration_s": 6.74e-13,
        }
        envelope = run_phasediff(cfg)
        assert len(envelope["results"]["records"]) == 4
        # a linspace sweep serializes like an explicit list: JSON booleans,
        # and true/false in the CSV
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        json_out, csv_out = tmp_path / "out.json", tmp_path / "out.csv"
        assert main(["phasediff", "--config", str(cfg_path), "--output", str(json_out),
                     "--format", "json"]) == 0
        assert main(["phasediff", "--config", str(cfg_path), "--output", str(csv_out)]) == 0
        records = json.loads(json_out.read_text())["results"]["records"]
        assert all(type(r["significant"]) is bool for r in records)
        lines = csv_out.read_text().splitlines()
        assert {line.rsplit(",", 1)[1] for line in lines[1:]} <= {"true", "false"}
        assert len(lines) == 5

    def test_packet_rows(self):
        cfg = {
            "species": "electron",
            "k0_rad_per_m": 8.64e10,
            "delta_k_rad_per_m": 1.0e8,
            "x_min_m": -2e-8,
            "x_max_m": 2e-8,
            "x_count": 21,
            "times_s": [0.0, 5e-15],
        }
        envelope = run_packet(cfg)
        rows = envelope["results"]["rows"]
        assert len(rows) == 42
        at_origin = [r for r in rows if r["x_m"] == 0.0 and r["t_s"] == 0.0][0]
        assert at_origin["re"] == pytest.approx(1.0, abs=1e-12)
        assert at_origin["envelope"] == pytest.approx(1.0, abs=1e-12)

    def test_run_faddeeva(self):
        assert run_faddeeva(0j) == pytest.approx(1.0 + 0j, abs=1e-15)


class TestMainEntryPoint:
    def test_faddeeva_prints_full_precision(self, capsys):
        assert main(["faddeeva", "0", "0"]) == 0
        assert capsys.readouterr().out.strip() == "1+0i"

    def test_byte_identical_reruns(self, tmp_path, fig6_small):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(fig6_small))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["pattern", "--config", str(cfg_path), "--output", str(out1)]) == 0
        assert main(["pattern", "--config", str(cfg_path), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_and_json_outputs_agree(self, tmp_path, fig6_small):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(fig6_small))
        csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
        main(["pattern", "--config", str(cfg_path), "--output", str(csv_path)])
        main(["pattern", "--config", str(cfg_path), "--output", str(json_path),
              "--format", "json"])
        envelope = json.loads(json_path.read_text())
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["screen_y_m", "p_intuitive", "p_stationary"]
        screen = envelope["results"]["screen_y_m"]
        patterns = envelope["results"]["patterns"]
        assert len(lines) - 1 == len(screen)
        for i, line in enumerate(lines[1:]):
            y, p_int, p_sp = (float(v) for v in line.split(","))
            assert y == pytest.approx(screen[i], rel=1e-15, abs=0.0)
            assert p_int == pytest.approx(patterns["intuitive"][i], rel=1e-15, abs=0.0)
            assert p_sp == pytest.approx(patterns["stationary_phase"][i], rel=1e-15, abs=0.0)

    def test_csv_format_conventions(self, tmp_path, fig6_small):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(fig6_small))
        out = tmp_path / "out.csv"
        main(["pattern", "--config", str(cfg_path), "--output", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw  # LF only
        assert raw.decode("utf-8").endswith("\n")

    @pytest.mark.parametrize(
        "command, edit, field",
        [
            ("pattern", lambda cfg: {"species": "electron"}, "geometry"),
            ("pattern", lambda cfg: cfg["screen"].update(points_y_m=[1e-7, None]),
             "screen.points_y_m[1]"),
            ("pattern", lambda cfg: cfg.update(
                methods=["intuitive"], geometry={**cfg["geometry"], "source_y_m": math.nan},
            ), "geometry.source_y_m"),
            ("pattern", lambda cfg: cfg.update(
                methods=["intuitive"], screen={"points_y_m": [1e300, 0.0]},
            ), "screen.points_y_m[0]"),
            ("pattern", lambda cfg: cfg["screen"].update(min_y_m=-1.0), "screen.min_y_m"),
            ("converge", lambda cfg: cfg.update(windows_s=[1e-13, None]), "windows_s[1]"),
            ("phasediff", lambda cfg: cfg["phasediff"].update(length_m={"linspace": 5}),
             "phasediff.length_m.linspace"),
            ("phasediff", lambda cfg: cfg["phasediff"].update(length_m=10**400),
             "phasediff.length_m"),
            ("phasediff", lambda cfg: cfg["phasediff"].update(length_m=[]),
             "phasediff.length_m"),
            ("phasediff", lambda cfg: cfg["phasediff"].update(
                length_m={"linspace": [3e-6, 3e-5, 0]},
            ), "phasediff.length_m.linspace[2]"),
            ("packet", lambda cfg: {
                "k0_rad_per_m": 8.64e10, "delta_k_rad_per_m": 1.0e8, "x_min_m": -2e-8,
                "x_max_m": 2e-8, "x_count": 21, "times_s": [0.0, None],
            }, "times_s[1]"),
            # an integer path used to be opened as a file descriptor
            ("phasediff", lambda cfg: cfg.update(output={"path": 1}), "output.path"),
            ("phasediff", lambda cfg: cfg.update(output={"path": ["out.csv"]}), "output.path"),
            ("converge", lambda cfg: cfg.update(domain="x_domain"), "domain"),
            ("pattern", lambda cfg: cfg["timesum"].update(phase_step_cap_rad=2.0),
             "timesum.phase_step_cap_rad"),
        ],
        ids=[
            "missing_fields", "null_screen_point", "nan_source_y", "screen_point_beyond_reach",
            "screen_grid_beyond_reach", "null_window", "linspace_not_a_list",
            "int_beyond_float", "empty_sweep_list", "empty_sweep_linspace", "null_time",
            "output_path_int", "output_path_list", "unknown_domain", "phase_cap_too_large",
        ],
    )
    def test_exit_code_validation_error(self, tmp_path, capsys, command, edit, field):
        cfg = fig4_preset() if command == "converge" else fig6_preset()
        cfg = edit(cfg) or cfg
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main([command, "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert f"{field}:" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_exit_code_non_finite_result(self, tmp_path, capsys, monkeypatch, fmt):
        # a NaN that gets past validation fails the run before any output
        def with_nan(config):
            envelope = run_phasediff(config)
            envelope["results"]["records"][0]["pi_value_rad"] = math.nan
            return envelope

        monkeypatch.setattr(cli, "run_phasediff", with_nan)
        out = tmp_path / "out"
        argv = ["phasediff", "--preset", "fig6", "--output", str(out), "--format", fmt]
        assert main(argv) == 3
        assert "numeric range error" in capsys.readouterr().err
        assert not out.exists()

    def test_exit_code_budget_error(self, tmp_path, capsys):
        # a partial window needs the 61 nodes of the fixed rule
        cfg = fig4_preset()
        cfg["max_nodes"] = 16
        cfg["windows_s"] = cfg["windows_s"][:1]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["converge", "--config", str(cfg_path)]) == 3
        assert "convergence failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, edit, message",
        [
            # 2 hbar tau underflows, so the stationary phase is not finite
            ("converge", lambda cfg: cfg.update(
                path={**cfg["path"], "duration_s": 1e-300}, windows_s=[1e-300],
            ), "numeric range error"),
            # numpy refuses arrays beyond the address space before allocating
            ("pattern", lambda cfg: cfg.update(
                methods=["intuitive"], screen={**cfg["screen"], "count": 10**17},
            ), "out of memory"),
            ("packet", lambda cfg: {
                "k0_rad_per_m": 8.64e10, "delta_k_rad_per_m": 1.0e8, "x_min_m": -2e-8,
                "x_max_m": 2e-8, "x_count": 10**17, "times_s": [0.0],
            }, "out of memory"),
        ],
        ids=["underflowing_duration", "huge_screen", "huge_packet_grid"],
    )
    def test_exit_code_numeric_failure(self, tmp_path, capsys, command, edit, message):
        cfg = fig4_preset() if command == "converge" else fig6_preset()
        cfg = edit(cfg) or cfg
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--output", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_exit_code_io_error(self, tmp_path, capsys):
        assert main(["pattern", "--config", str(tmp_path / "missing.json")]) == 4

    def test_preset_and_config_mutually_exclusive(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{}")
        assert main(["pattern", "--preset", "fig6", "--config", str(cfg_path)]) == 2

    def test_unknown_preset(self):
        assert main(["pattern", "--preset", "fig9"]) == 2
