import json
import math
import os
import re

import pytest
from hypothesis import given, settings, strategies as st

from oem_mmwave import OemConfig
from oem_mmwave.errors import InvalidConfigError

from conftest import WAVELENGTH_35GHZ

VALID = {
    "n_tx": 2, "m_rx": 3, "u_elems": 4, "v_elems": 8, "r1": 0.1, "r2": 0.004,
    "wavelength": WAVELENGTH_35GHZ, "phi": 30.0, "phi_c": 3.0, "theta": 10.0,
    "beta": [1.0, 0.0], "link_distance": 50.0, "conv_gains": None, "noise_var": 1.0,
}

# Anything json.loads can return, plus values near the valid ones so that
# some drawn configs get past the type checks to the range checks.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([0, 1, 4, 8, 0.004, 0.1, 30.0, [1.0, 0.5], [1.0, 1.0, 1.0, 1.0]]),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)


class TestValidation:
    def test_valid_config_passes(self, base_cfg):
        base_cfg.validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_tx=0),
            dict(v_elems=2),          # V < U
            dict(r2=0.2),             # r2 >= r1
            dict(wavelength=-1.0),
            dict(phi=2.0),            # >= pi/2
            dict(phi_c=1.0),          # > phi
            dict(conv_gains=(1.0,)),  # wrong length
            dict(conv_gains=(1.0, 1.0, -1.0, 1.0)),
            dict(link_distance=0.0),
            dict(noise_var=-1.0),
        ],
    )
    def test_invariant_violations_rejected(self, base_cfg, kwargs):
        with pytest.raises(InvalidConfigError):
            base_cfg.with_(**kwargs)


class TestJsonRoundTrip:
    def test_round_trip_preserves_fields(self, base_cfg, tmp_path):
        path = tmp_path / "cfg.json"
        cfg = base_cfg.with_(conv_gains=(1.0, 2.0, 3.0, 4.0), beta=0.5 + 0.25j)
        cfg.save(path)
        loaded = OemConfig.load(path)
        assert loaded.n_tx == cfg.n_tx
        assert loaded.phi == pytest.approx(cfg.phi, rel=1e-12)
        assert loaded.theta == pytest.approx(cfg.theta, rel=1e-12)
        assert loaded.beta == cfg.beta
        assert loaded.conv_gains == cfg.conv_gains

    def test_angles_stored_in_degrees(self, base_cfg, tmp_path):
        path = tmp_path / "cfg.json"
        base_cfg.save(path)
        raw = json.loads(path.read_text())
        assert raw["phi"] == pytest.approx(30.0)
        assert raw["phi_c"] == pytest.approx(3.0)
        assert raw["theta"] == pytest.approx(math.degrees(0.3))

    def test_missing_field_rejected(self, base_cfg, tmp_path):
        path = tmp_path / "cfg.json"
        d = base_cfg.to_json_dict()
        del d["r1"]
        path.write_text(json.dumps(d))
        with pytest.raises(InvalidConfigError):
            OemConfig.load(path)

    def test_unknown_field_rejected(self, base_cfg, tmp_path):
        path = tmp_path / "cfg.json"
        d = base_cfg.to_json_dict()
        d["bandwidth"] = 1.0
        path.write_text(json.dumps(d))
        with pytest.raises(InvalidConfigError):
            OemConfig.load(path)

    def test_required_fields_alone_take_the_defaults(self, tmp_path):
        required = {k: VALID[k] for k in ("n_tx", "m_rx", "u_elems", "v_elems", "r1", "r2",
                                          "wavelength", "phi", "phi_c")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(required))
        expected = OemConfig(**{**required, "phi": math.radians(required["phi"]),
                                "phi_c": math.radians(required["phi_c"])})
        assert OemConfig.load(path) == expected

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(InvalidConfigError):
            OemConfig.load(path)

    def test_json_array_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps([VALID]))
        with pytest.raises(InvalidConfigError, match="^config file must hold a JSON object$"):
            OemConfig.load(path)

    @pytest.mark.parametrize("field", ["r1", "n_tx"])
    def test_integer_literal_too_long_to_convert_rejected(self, field, tmp_path):
        # json.loads raises a plain ValueError, not JSONDecodeError, for it
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**VALID, field: "huge"}).replace('"huge"', "1" * 5001))
        with pytest.raises(InvalidConfigError, match="^config file is not valid JSON: .*digits"):
            OemConfig.load(path)

    @pytest.mark.parametrize("field, value, message", [
        # an integer literal that float() cannot convert
        ("r1", 10 ** 400, "^r1 is out of range, got 1000"),
        ("beta", [1.0, 0.0, 0.0], r"^beta must be a number or \[re, im\], got \[1.0, 0.0, 0.0\]$"),
        ("conv_gains", "1111", "^conv_gains must be a list or null, got '1111'$"),
    ])
    def test_bad_field_form_rejected_naming_it(self, field, value, message):
        with pytest.raises(InvalidConfigError, match=message):
            OemConfig.from_json_dict({**VALID, field: value})

    @pytest.mark.parametrize("name", ["missing.json", ""], ids=["missing", "directory"])
    def test_unreadable_path_rejected(self, tmp_path, name):
        # the message is the OSError's own, naming the path, as the CLI prints it
        path = tmp_path / name
        with pytest.raises(InvalidConfigError, match=re.escape(f": '{path}'")) as info:
            OemConfig.load(path)
        assert isinstance(info.value.__cause__, OSError)


class TestSave:
    def test_bytes(self, tmp_path):
        cfg = OemConfig(n_tx=2, m_rx=3, u_elems=2, v_elems=4, r1=0.1, r2=0.004,
                        wavelength=0.01, phi=math.radians(30), phi_c=0.0,
                        beta=0.5 - 0.25j, conv_gains=(1.0, 0.5))
        cfg.save(tmp_path / "cfg.json")
        assert (tmp_path / "cfg.json").read_bytes() == (
            b'{\n  "n_tx": 2,\n  "m_rx": 3,\n  "u_elems": 2,\n  "v_elems": 4,\n'
            b'  "r1": 0.1,\n  "r2": 0.004,\n  "wavelength": 0.01,\n'
            b'  "phi": 29.999999999999996,\n  "phi_c": 0.0,\n  "theta": 0.0,\n'
            b'  "beta": [\n    0.5,\n    -0.25\n  ],\n  "link_distance": 100.0,\n'
            b'  "conv_gains": [\n    1.0,\n    0.5\n  ],\n  "noise_var": 1.0\n}\n'
        )
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_replaces_an_earlier_file(self, base_cfg, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("previous\n")
        base_cfg.save(path)
        assert path.read_text() == json.dumps(base_cfg.to_json_dict(), indent=2) + "\n"
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_missing_directory_rejected_naming_the_path(self, base_cfg, tmp_path):
        path = tmp_path / "missing" / "cfg.json"
        with pytest.raises(InvalidConfigError, match=f"^cannot write {re.escape(str(path))}: "):
            base_cfg.save(path)
        assert os.listdir(tmp_path) == []


@settings(max_examples=200, deadline=None)
@given(
    overrides=st.dictionaries(st.sampled_from([*VALID, "bandwidth"]), JSON_VALUES, max_size=4),
    dropped=st.sets(st.sampled_from(list(VALID)), max_size=2),
)
def test_any_json_object_gives_a_config_or_invalid_config_error(overrides, dropped):
    d = {k: v for k, v in {**VALID, **overrides}.items() if k not in dropped}
    try:
        cfg = OemConfig.from_json_dict(d)
    except InvalidConfigError:
        return
    assert isinstance(cfg, OemConfig)
