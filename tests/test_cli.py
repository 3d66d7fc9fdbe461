import csv
import json
import math
import os
import platform

import numpy as np
import pytest

from oem_mmwave import ModeChannels, OemConfig, build_mode_channels, cli, waterfill
from oem_mmwave.channel import VARIANTS
from oem_mmwave.cli import main

from conftest import WAVELENGTH_35GHZ
from oracles import csv_channel_dump


@pytest.fixture
def config_path(base_cfg, tmp_path):
    path = tmp_path / "link.json"
    base_cfg.with_(noise_var=1.0).save(path)
    return str(path)


# Valid design flags; a later repeat of a flag overrides its value here.
DESIGN_FLAGS = {
    "patch": ["--freq-ghz", "35", "--eps-r", "2.2", "--thickness-mm", "0.245"],
    "dish": ["--gain-db", "36", "--efficiency", "0.5", "--kappa", "0.4", "--freq-ghz", "35"],
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDesign:
    def test_patch_golden(self, capsys):
        code, out, _ = run(
            capsys, "design", "patch",
            "--freq-ghz", "35", "--eps-r", "2.2", "--thickness-mm", "0.245",
        )
        assert code == 0
        record = json.loads(out)
        assert record["width_mm"] == pytest.approx(3.386, abs=1e-3)
        assert record["eps_eff"] == pytest.approx(2.039, abs=1e-3)

    def test_dish_golden(self, capsys):
        code, out, _ = run(
            capsys, "design", "dish",
            "--gain-db", "36", "--efficiency", "0.5", "--kappa", "0.4", "--freq-ghz", "35",
        )
        assert code == 0
        record = json.loads(out)
        assert record["diameter_mm"] == pytest.approx(121.6, abs=0.1)
        assert record["focal_length_mm"] == pytest.approx(0.4 * record["diameter_mm"], rel=1e-12)

    def test_missing_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["design", "patch", "--freq-ghz", "35"])
        assert exc.value.code == 2

    def test_zero_thickness_exits_3(self, capsys):
        code, out, err = run(capsys, "design", "patch", *DESIGN_FLAGS["patch"],
                             "--thickness-mm", "0")
        assert code == 3
        assert out == ""
        assert err == "config error: thickness must be finite and > 0, got 0.0\n"

    def test_bad_spec_exits_3(self, capsys):
        code, _, err = run(
            capsys, "design", "patch",
            "--freq-ghz", "35", "--eps-r", "0.5", "--thickness-mm", "0.245",
        )
        assert code == 3
        assert "config error" in err

    @pytest.mark.parametrize("kind", ["patch", "dish"])
    @pytest.mark.parametrize("freq", ["0", "-35", "nan", "inf"])
    def test_bad_frequency_exits_2(self, kind, freq, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["design", kind, *DESIGN_FLAGS[kind], f"--freq-ghz={freq}"])
        assert exc.value.code == 2
        assert f"--freq-ghz: must be positive and finite, got {freq}" in capsys.readouterr().err

    # NaN or infinite values printed NaN or Infinity, which is not JSON;
    # 10**(4000/10) overflowed; a diameter outside the float range gave a
    # zero surface coefficient or a division by zero
    @pytest.mark.parametrize("kind, flags, field", [
        ("dish", ["--gain-db", "4000"], "gain_db"),
        ("dish", ["--gain-db", "nan"], "gain_db"),
        ("dish", ["--gain-db", "inf"], "gain_db"),
        ("patch", ["--z0", "nan"], "z0"),
        ("patch", ["--eps-r", "inf"], "eps_r"),
        ("dish", ["--efficiency", "1e-320", "--freq-ghz", "1e290"], "diameter"),
        ("dish", ["--gain-db", "3000", "--freq-ghz", "1e-300"], "diameter"),
        ("patch", ["--thickness-mm", "1e-320"], "thickness"),
        ("patch", ["--thickness-mm", "50"], "thickness"),
    ])
    def test_bad_number_exits_3_naming_the_field(self, kind, flags, field, capsys):
        code, out, err = run(capsys, "design", kind, *DESIGN_FLAGS[kind], *flags)
        assert code == 3
        assert out == ""
        assert field in err


class TestScenario:
    def test_scenario_one_report(self, base_cfg, tmp_path, capsys):
        path = tmp_path / "s1.json"
        base_cfg.with_(n_tx=8, u_elems=8, v_elems=8).save(path)
        code, out, _ = run(capsys, "scenario", "--config", str(path))
        assert code == 0
        record = json.loads(out)
        assert record["scenario"] == "I"
        lo, hi = record["wavelength_interval_mm"]
        assert lo <= record["wavelength_mm"] < hi

    def test_missing_config_exits_3(self, tmp_path, capsys):
        code, out, err = run(capsys, "scenario", "--config", str(tmp_path / "missing.json"))
        assert code == 3
        assert out == ""
        assert "config error" in err and "missing.json" in err

    def test_bad_config_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        code, _, err = run(capsys, "scenario", "--config", str(path))
        assert code == 3

    @pytest.mark.parametrize("field", ["r1", "n_tx"])
    def test_integer_literal_too_long_to_convert_exits_3(self, field, base_cfg, tmp_path,
                                                          capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({**base_cfg.to_json_dict(), field: "huge"})
                        .replace('"huge"', "1" * 5001))
        code, out, err = run(capsys, "scenario", "--config", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("config error: config file is not valid JSON: ")
        assert "digits" in err

    @pytest.mark.parametrize("field,value", [
        ("noise_var", math.nan), ("theta", math.nan), ("beta", math.nan),
        ("conv_gains", [math.nan, 1.0, 1.0, 1.0]), ("wavelength", math.inf),
        ("link_distance", math.inf), ("n_tx", 3.7), ("beta", "ab"), ("n_tx", True),
    ])
    def test_bad_value_exits_3_naming_the_field(self, field, value, base_cfg, tmp_path, capsys):
        d = base_cfg.to_json_dict()
        d[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        code, _, err = run(capsys, "scenario", "--config", str(path))
        assert code == 3
        assert field in err


class TestConfigFile:
    @pytest.mark.parametrize("command", ["channel", "simulate", "scenario"])
    def test_not_utf8_exits_3_naming_the_file(self, command, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        argv = {
            "channel": ["channel", "--out", str(tmp_path / "h.csv")],
            "simulate": ["simulate", "--snr-db", "0:0:1", "--trials", "1000", "--seed", "1",
                         "--out", str(tmp_path / "se.csv")],
            "scenario": ["scenario"],
        }[command] + ["--config", str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert f"config error: config file {path} is not UTF-8" in err
        assert os.listdir(tmp_path) == ["utf16.json"]

    def test_byte_order_mark_is_accepted(self, base_cfg, tmp_path, capsys):
        # spreadsheet and editor exports often start UTF-8 with a BOM
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        base_cfg.save(plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        reports = [run(capsys, "scenario", "--config", str(path)) for path in (plain, marked)]
        assert reports[0][0] == 0
        assert reports[1] == reports[0]


class TestChannel:
    def test_single_link_single_mode(self, base_cfg, tmp_path, capsys):
        path = tmp_path / "one.json"
        base_cfg.with_(n_tx=1, m_rx=1, u_elems=1, v_elems=1, phi_c=0.0).save(path)
        out_csv = tmp_path / "h.csv"
        code, _, _ = run(
            capsys, "channel", "--config", str(path), "--mode", "0",
            "--model", "bessel", "--out", str(out_csv),
        )
        assert code == 0
        rows = list(csv.DictReader(out_csv.read_text().splitlines()))
        assert len(rows) == 1
        assert rows[0]["mode"] == "0"
        assert (tmp_path / "h.csv.manifest.json").exists()

    def test_all_modes_row_count(self, config_path, base_cfg, tmp_path, capsys):
        out_csv = tmp_path / "h.csv"
        code, _, _ = run(capsys, "channel", "--config", config_path, "--out", str(out_csv))
        assert code == 0
        rows = list(csv.DictReader(out_csv.read_text().splitlines()))
        assert len(rows) == base_cfg.u_elems * base_cfg.m_rx * base_cfg.n_tx

    def test_one_mode_writes_that_mode_of_the_full_dump(self, config_path, base_cfg, tmp_path,
                                                         capsys):
        full, one = tmp_path / "full.csv", tmp_path / "one.csv"
        assert run(capsys, "channel", "--config", config_path, "--out", str(full))[0] == 0
        assert run(capsys, "channel", "--config", config_path, "--mode", "2",
                   "--out", str(one))[0] == 0
        full_lines = full.read_text().splitlines()
        mode_2 = [line for line in full_lines[1:] if line.startswith("2,")]
        assert len(mode_2) == base_cfg.m_rx * base_cfg.n_tx
        assert one.read_text().splitlines() == full_lines[:1] + mode_2

    @pytest.mark.parametrize("model", VARIANTS)
    @pytest.mark.parametrize("mode", [None, 2])
    def test_dump_matches_the_csv_module_writer(self, model, mode, base_cfg, tmp_path, capsys):
        # theta = 135 degrees gives entries of both signs in both parts.  At
        # U = V = 16 the full convergent dump also holds dead modes (0 and -0
        # entries), and exact-sum and bessel write exponent forms (1.2e-05).
        link = base_cfg.with_(n_tx=4, m_rx=5, theta=math.radians(135.0))
        path, out_csv = tmp_path / "link.json", tmp_path / "h.csv"
        argv = ["channel", "--config", str(path), "--model", model, "--out", str(out_csv)]
        for cfg in (link, link.with_(u_elems=16, v_elems=16)):
            cfg.save(path)
            assert run(capsys, *argv, *([] if mode is None else ["--mode", str(mode)]))[0] == 0
            channels = build_mode_channels(OemConfig.load(path), model)
            expected = csv_channel_dump([cfg.v_elems * ch.matrix for ch in channels], mode)
            assert out_csv.read_bytes() == expected.encode()

    def test_mode_out_of_range_exits_2_before_any_channel_is_built(self, config_path,
                                                                   monkeypatch, tmp_path,
                                                                   capsys):
        def unexpected(*args, **kwargs):
            raise AssertionError("channels built for an out-of-range --mode")

        monkeypatch.setattr(cli, "build_mode_channels", unexpected)
        out_csv = tmp_path / "h.csv"
        with pytest.raises(SystemExit) as exc:
            main(["channel", "--config", config_path, "--mode", "99", "--out", str(out_csv)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: oem-sim channel")
        assert "argument --mode: must lie in 0..3, got 99" in err
        assert not out_csv.exists()

    def test_oversized_layout_exits_3(self, config_path, monkeypatch, tmp_path, capsys):
        # 3 x 2 x 3 = 18 center-difference values over a lowered cap of 17
        monkeypatch.setattr(waterfill, "MAX_DRAWS", 17)
        out_csv = tmp_path / "h.csv"
        code, _, err = run(capsys, "channel", "--config", config_path, "--out", str(out_csv))
        assert code == 3
        assert "config error" in err and "N=2 transmit and M=3 receive UCAs" in err
        assert not out_csv.exists()


class TestWaterfill:
    def test_worked_example(self, tmp_path, capsys):
        snr_csv = tmp_path / "gamma.csv"
        snr_csv.write_text("i,l,gamma\n0,0,4.0\n0,1,1.0\n")
        out_csv = tmp_path / "powers.csv"
        code, _, _ = run(
            capsys, "waterfill", "--snr-csv", str(snr_csv),
            "--total-power", "1.0", "--out", str(out_csv),
        )
        assert code == 0
        rows = {row["l"]: float(row["power"])
                for row in csv.DictReader(out_csv.read_text().splitlines())}
        assert rows["0"] == pytest.approx(0.875)
        assert rows["1"] == pytest.approx(0.125)
        summary = json.loads((tmp_path / "powers.summary.json").read_text())
        assert summary["water_level"] == pytest.approx(1.125)
        assert summary["active_count"] == 2

    def test_bad_csv_exits_3(self, tmp_path, capsys):
        snr_csv = tmp_path / "gamma.csv"
        snr_csv.write_text("a,b\n1,2\n")
        code, _, _ = run(
            capsys, "waterfill", "--snr-csv", str(snr_csv),
            "--total-power", "1.0", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3

    def test_not_utf8_csv_exits_3_naming_the_file(self, tmp_path, capsys):
        snr_csv = tmp_path / "gamma.csv"
        snr_csv.write_bytes("i,l,gamma\n0,0,4.0\n".encode("utf-16"))
        out_csv = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "waterfill", "--snr-csv", str(snr_csv),
            "--total-power", "1.0", "--out", str(out_csv),
        )
        assert code == 3
        assert f"bad SNR csv: {snr_csv} is not UTF-8" in err
        assert "line" not in err
        assert not out_csv.exists()

    def test_byte_order_mark_is_accepted(self, tmp_path, capsys):
        # the BOM must not become part of the first header name
        outputs = []
        for name, prefix in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
            snr_csv, out_csv = tmp_path / f"{name}.csv", tmp_path / f"{name}-powers.csv"
            snr_csv.write_bytes(prefix + b"i,l,gamma\n0,0,4.0\n0,1,1.0\n")
            code, _, err = run(capsys, "waterfill", "--snr-csv", str(snr_csv),
                               "--total-power", "1.0", "--out", str(out_csv))
            assert (code, err) == (0, "")
            outputs.append(out_csv.read_bytes())
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
    def test_non_finite_gamma_exits_3(self, gamma, tmp_path, capsys):
        snr_csv = tmp_path / "gamma.csv"
        snr_csv.write_text(f"i,l,gamma\n0,0,4.0\n0,1,{gamma}\n")
        out_csv = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "waterfill", "--snr-csv", str(snr_csv),
            "--total-power", "1.0", "--out", str(out_csv),
        )
        assert code == 3
        assert "line 3" in err and gamma in err
        assert not out_csv.exists()

    def test_indices_are_labels(self, tmp_path, capsys):
        # no array is sized by an index, so a huge one is a plain label
        snr_csv = tmp_path / "gamma.csv"
        snr_csv.write_text("i,l,gamma\n10000000000000000000,0,2.0\n")
        out_csv = tmp_path / "powers.csv"
        code, _, _ = run(
            capsys, "waterfill", "--snr-csv", str(snr_csv),
            "--total-power", "0.5", "--out", str(out_csv),
        )
        assert code == 0
        [row] = csv.DictReader(out_csv.read_text().splitlines())
        assert row["i"] == "10000000000000000000" and row["l"] == "0"
        assert float(row["power"]) == 0.5
        summary = json.loads((tmp_path / "powers.summary.json").read_text())
        assert summary["active_count"] == 1

    def test_overflowing_water_level_exits_3(self, tmp_path, capsys):
        # (1.7e308 + 1e308 + 5e307) / 2 passes the float range
        snr_csv = tmp_path / "gamma.csv"
        snr_csv.write_text("i,l,gamma\n0,0,1e-308\n1,0,2e-308\n")
        code, _, err = run(
            capsys, "waterfill", "--snr-csv", str(snr_csv),
            "--total-power", "1.7e308", "--out", str(tmp_path / "powers.csv"),
        )
        assert code == 3
        assert "power budget 1.7e+308 overflows the float range" in err
        assert list(tmp_path.iterdir()) == [snr_csv]

    @pytest.mark.parametrize("text, message", [
        ("i,l,gamma\n0,0,4.0\n0,-1,1.0\n",
         "bad SNR csv, line 3: stream/mode indices must be nonnegative"),
        ("i,l,gamma\n", "SNR csv holds no channels"),
        (None, "bad SNR csv: [Errno 2] No such file or directory"),
    ], ids=["negative-index", "header-only", "missing"])
    def test_unusable_csv_exits_3(self, text, message, tmp_path, capsys):
        snr_csv = tmp_path / "gamma.csv"
        if text is not None:
            snr_csv.write_text(text)
        out_csv = tmp_path / "x.csv"
        code, _, err = run(capsys, "waterfill", "--snr-csv", str(snr_csv),
                           "--total-power", "1", "--out", str(out_csv))
        assert code == 3
        assert err.startswith(f"config error: {message}")
        assert not out_csv.exists()

    def test_subnormal_gamma_gets_no_power_silently(self, tmp_path, capsys):
        # 1/5e-324 overflows to +inf, which no water level reaches
        snr_csv = tmp_path / "gamma.csv"
        snr_csv.write_text("i,l,gamma\n0,0,5e-324\n0,1,1.0\n")
        out_csv = tmp_path / "powers.csv"
        code, _, err = run(capsys, "waterfill", "--snr-csv", str(snr_csv),
                           "--total-power", "1", "--out", str(out_csv))
        assert (code, err) == (0, "")
        assert out_csv.read_text() == "i,l,gamma,power\n0,0,4.94065645841e-324,0\n0,1,1,1\n"

    def test_duplicate_channel_exits_3(self, tmp_path, capsys):
        # two rows with one (i, l) label would be two channels that the
        # output could not tell apart
        snr_csv = tmp_path / "gamma.csv"
        snr_csv.write_text("i,l,gamma\n0,0,5\n0,0,0.1\n")
        out_csv = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "waterfill", "--snr-csv", str(snr_csv),
            "--total-power", "1", "--out", str(out_csv),
        )
        assert code == 3
        assert "line 3" in err and "i=0 l=0" in err
        assert not out_csv.exists()


class TestSimulate:
    def test_deterministic_output(self, config_path, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run(
                capsys, "simulate", "--config", config_path,
                "--snr-db", "0:10:5", "--trials", "1000", "--seed", "7",
                "--out", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_golden_output(self, config_path, base_cfg, tmp_path, capsys):
        # the bytes of these runs as first recorded: a refactor of the
        # estimator must leave every one where it was.  With one mode the
        # OEM link is its MIMO baseline, so its OEM columns are the MIMO ones
        one_mode = tmp_path / "one_mode.json"
        base_cfg.with_(noise_var=1.0, u_elems=1).save(one_mode)
        for config, rows in ((config_path, (
            "0,8.15119200883,0.0910497928083,2.08301144414,0.0460433564677\n"
            "5,14.6861106129,0.11672368947,3.71938295594,0.0591776527331\n"
            "10,23.8042348779,0.13731590032,6.00015028435,0.0693853701825\n"
        )), (str(one_mode), (
            "0,2.08301144414,0.0460433564677,2.08301144414,0.0460433564677\n"
            "5,3.71938295594,0.0591776527331,3.71938295594,0.0591776527331\n"
            "10,6.00015028435,0.0693853701825,6.00015028435,0.0693853701825\n"
        ))):
            out = tmp_path / "sweep.csv"
            code, _, _ = run(
                capsys, "simulate", "--config", config,
                "--snr-db", "0:10:5", "--trials", "1000", "--seed", "7",
                "--out", str(out),
            )
            assert code == 0
            assert out.read_text() == "snr_db,se_oem,se_oem_stderr,se_mimo,se_mimo_stderr\n" + rows

    def test_overflowing_budget_exits_3(self, config_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, err = run(
            capsys, "simulate", "--config", config_path, "--total-power", "1e300",
            "--snr-db=280:300:10", "--trials", "1000", "--seed", "1", "--out", str(out),
        )
        assert code == 3
        assert "power budget" in err and "overflows the float range" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "link.json"]

    def test_manifest_written(self, config_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        run(
            capsys, "simulate", "--config", config_path,
            "--snr-db", "0:5:5", "--trials", "1000", "--seed", "1", "--out", str(out),
        )
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 1
        assert str(out) in manifest["outputs"]
        assert manifest["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
        }

    def test_exact_sum_profile_is_the_channel_norm_ratio(self, config_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "simulate", "--config", config_path, "--model", "exact-sum",
            "--snr-db", "0:0:1", "--trials", "1000", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        echo = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())["config_echo"]
        channels = build_mode_channels(OemConfig.load(config_path), "exact-sum")
        norms = np.array([np.linalg.norm(ch.matrix) ** 2 for ch in channels])
        assert echo["model"] == "exact-sum"
        assert echo["mode_profile"] == pytest.approx(list(norms / norms[0]), rel=1e-12)

    def test_negative_seed_exits_2(self, config_path, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main([
                "simulate", "--config", config_path,
                "--snr-db", "0:10:5", "--trials", "1000", "--seed=-1",
                "--out", str(out),
            ])
        assert exc.value.code == 2
        assert "--seed: must be nonnegative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_simulation_error_exits_4(self, base_cfg, tmp_path, capsys):
        path = tmp_path / "dead.json"
        base_cfg.with_(conv_gains=(0.0, 1.0, 1.0, 1.0)).save(path)
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "simulate", "--config", str(path),
            "--snr-db", "0:10:5", "--trials", "1000", "--seed", "7", "--out", str(out),
        )
        assert code == 4
        assert "simulation error" in err and "mode 0 gain vanished" in err
        assert not out.exists()

    def test_too_many_trials_exits_3(self, base_cfg, tmp_path, capsys):
        # 2 x 10**15 draws are rejected before any array is made
        path = tmp_path / "small.json"
        base_cfg.with_(n_tx=2, m_rx=2, u_elems=2, v_elems=2).save(path)
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "simulate", "--config", str(path), "--snr-db", "0:0:1",
            "--trials", "1000000000000000", "--seed", "1", "--out", str(out),
        )
        assert code == 3
        assert "config error" in err and "trials" in err
        assert not out.exists()

    def test_oem_draw_cap_exits_3_before_any_draw(self, config_path, monkeypatch, drawn,
                                                  tmp_path, capsys):
        # the cap admits the 2 MIMO channels but not the 8 OEM ones
        monkeypatch.setattr(waterfill, "MAX_DRAWS", 2 * 1_000)
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "simulate", "--config", config_path, "--snr-db", "0:10:5",
            "--trials", "1000", "--seed", "1", "--out", str(out),
        )
        assert code == 3
        assert "config error" in err and "use at most 250 trials" in err
        assert not out.exists()
        assert drawn == []

    def test_overflowing_draws_exit_3(self, tmp_path, capsys):
        # the reflector gain makes g_1 = 7.7e307, so mode-1 draws leave
        # the float range; no row of inf and NaN is written
        path = tmp_path / "big.json"
        OemConfig(n_tx=4, m_rx=4, u_elems=2, v_elems=2, r1=0.1, r2=0.004, wavelength=0.0086,
                  phi=0.5, phi_c=0.05, conv_gains=[1.0, 1.2e155]).save(path)
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "simulate", "--config", str(path), "--snr-db", "0:10:10",
            "--trials", "1000", "--seed", "0", "--out", str(out),
        )
        assert code == 3
        assert "config error" in err and "overflow the float range" in err
        assert not out.exists()

    def test_oversized_exact_sum_exits_3(self, config_path, monkeypatch, tmp_path, capsys):
        # U = 4 needs 16 phase values, over a lowered cap of 15
        monkeypatch.setattr(waterfill, "MAX_DRAWS", 15)
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "simulate", "--config", config_path, "--model", "exact-sum",
            "--snr-db", "0:0:1", "--trials", "1000", "--seed", "1", "--out", str(out),
        )
        assert code == 3
        assert "config error" in err and "U=4 elements" in err
        assert not out.exists()

    def test_too_few_trials_exits_2(self, config_path, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main([
                "simulate", "--config", config_path,
                "--snr-db", "0:10:5", "--trials", "999", "--seed", "7",
                "--out", str(out),
            ])
        assert exc.value.code == 2
        assert "--trials: need at least 1000 trials, got 999" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("power", ["-1", "0", "nan", "inf"])
    def test_bad_total_power_exits_2(self, power, config_path, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main([
                "simulate", "--config", config_path,
                "--snr-db", "0:10:5", "--trials", "1000", "--seed", "7",
                "--total-power", power, "--out", str(out),
            ])
        assert exc.value.code == 2
        # the flag's own value, not the budget scaled by the channel count
        assert f"--total-power: must be positive and finite, got {power}" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_bad_range_exits_2(self, tmp_path, capsys):
        # the flag is rejected before the (missing) config file is read
        out = tmp_path / "x.csv"
        for snr_db, reason in [("10", "expected start:stop:step"),
                               ("0:ten:1", "could not convert string to float: 'ten'"),
                               ("5:0:1", "need step > 0 and stop >= start"),
                               ("0:10:0", "need step > 0 and stop >= start")]:
            with pytest.raises(SystemExit) as exc:
                main([
                    "simulate", "--config", str(tmp_path / "missing.json"),
                    "--snr-db", snr_db, "--trials", "1000", "--seed", "7", "--out", str(out),
                ])
            assert exc.value.code == 2
            assert f"--snr-db: {reason}" in capsys.readouterr().err
            assert not out.exists()

    # 0:100:0.1 holds 1001 points, one above the cap; 1e-320 makes the
    # point count overflow to inf
    @pytest.mark.parametrize("snr_db", ["3100:3100:1", "0:inf:1", "-inf:0:1", "nan:0:1",
                                        "0:0:nan", "-300.5:0:1", "0:300.5:1",
                                        "0:100:0.1", "0:30:1e-320"])
    def test_out_of_range_snr_exits_2(self, snr_db, config_path, tmp_path, capsys):
        reason = {
            "3100:3100:1": "start and stop must lie within +-300 dB",
            "-300.5:0:1": "start and stop must lie within +-300 dB",
            "0:300.5:1": "start and stop must lie within +-300 dB",
            "0:100:0.1": "the range holds more than 1000 points",
            "0:30:1e-320": "the range holds more than 1000 points",
        }.get(snr_db, "start, stop and step must be finite")
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main([
                "simulate", "--config", config_path, f"--snr-db={snr_db}",
                "--trials", "1000", "--seed", "7", "--out", str(out),
            ])
        assert exc.value.code == 2
        assert f"--snr-db: {reason}" in capsys.readouterr().err
        assert not out.exists()

    def test_snr_range_limits_are_inclusive(self):
        assert len(cli._parse_snr_range("0:99.9:0.1")) == cli.MAX_SNR_POINTS
        assert cli._parse_snr_range("-300:300:600") == [-300.0, 300.0]


class TestOutputs:
    @pytest.mark.parametrize("command", ["channel", "waterfill", "simulate"])
    def test_failed_write_leaves_old_output_whole(self, command, config_path, tmp_path,
                                                  monkeypatch):
        snr_csv = tmp_path / "gamma.csv"
        snr_csv.write_text("i,l,gamma\n0,0,4.0\n0,1,1.0\n")
        out = tmp_path / "out.csv"
        out.write_bytes(b"previous run\n")
        argv = {
            "channel": ["channel", "--config", config_path],
            "waterfill": ["waterfill", "--snr-csv", str(snr_csv), "--total-power", "1"],
            "simulate": ["simulate", "--config", config_path, "--snr-db", "0:0:1",
                         "--trials", "1000", "--seed", "1"],
        }[command] + ["--out", str(out)]
        before = sorted(os.listdir(tmp_path))

        def fail(x):
            raise RuntimeError("formatting failed mid-write")

        monkeypatch.setattr(cli, "_fmt", fail)
        # the channel dump formats its rows inline: fail it once mode 0 is written
        mode_matrix = ModeChannels.__getitem__
        monkeypatch.setattr(ModeChannels, "__getitem__",
                            lambda self, l: fail(l) if l > 0 else mode_matrix(self, l))
        with pytest.raises(RuntimeError):
            main(argv)
        assert out.read_bytes() == b"previous run\n"
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("command", ["channel", "waterfill", "simulate"])
    def test_missing_output_directory_exits_3(self, command, config_path, tmp_path, capsys):
        snr_csv = tmp_path / "gamma.csv"
        snr_csv.write_text("i,l,gamma\n0,0,4.0\n0,1,1.0\n")
        out = tmp_path / "missing" / "out.csv"
        argv = {
            "channel": ["channel", "--config", config_path],
            "waterfill": ["waterfill", "--snr-csv", str(snr_csv), "--total-power", "1"],
            "simulate": ["simulate", "--config", config_path, "--snr-db", "0:0:1",
                         "--trials", "1000", "--seed", "1"],
        }[command] + ["--out", str(out)]
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert str(out) in err
        assert not out.parent.exists()
