"""System configuration for the OAM-embedded massive-MIMO link.

The JSON schema mirrors the dataclass field names one-to-one.  Angles
(``phi``, ``phi_c``, ``theta``) are stored in DEGREES in the file and
converted to radians on load; ``beta`` is stored as a two-element
``[re, im]`` list.  Everything else is SI units (meters, watts).
Counts must be JSON integers within the float range, every other value
a finite JSON number.
The four lengths (``r1``, ``r2``, ``wavelength``, ``link_distance``) lie
in [1e-150, 1e150] m, so every product or ratio of two of them is a
normal float; |beta| * wavelength / (4 pi link_distance), the largest
distance gain of the link, must be finite as well.
"""

from __future__ import annotations

import cmath
import contextlib
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields, replace
from numbers import Integral
from pathlib import Path
from typing import Optional, Sequence

from .errors import InvalidConfigError

_ANGLES = ("phi", "phi_c", "theta")
_LENGTHS = ("r1", "r2", "wavelength", "link_distance")
_LENGTH_MIN, _LENGTH_MAX = 1e-150, 1e150


@contextlib.contextmanager
def _replace_on_success(path):
    """Text handle on a temporary file that replaces ``path`` only once fully written.

    An OSError while writing becomes an InvalidConfigError naming ``path``.
    """
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise InvalidConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


def _field_number(name: str, value, integer: bool = False):
    """An integer (not a bool), or a number as a float; anything else names the field."""
    if isinstance(value, bool) or not isinstance(value, Integral if integer else (int, float)):
        raise InvalidConfigError(
            f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    try:
        return value if integer else float(value)
    except OverflowError:
        raise InvalidConfigError(f"{name} is out of range, got {value}") from None


def _from_json(name: str, kind: str, value):
    """Field ``name``, declared as type ``kind``, from its value in a config file."""
    if name == "beta":
        parts = value if isinstance(value, list) else [value, 0.0]
        if len(parts) != 2:
            raise InvalidConfigError(f"beta must be a number or [re, im], got {value!r}")
        return complex(*(_field_number(name, x) for x in parts))
    if name == "conv_gains":
        if not isinstance(value, (list, type(None))):
            raise InvalidConfigError(f"conv_gains must be a list or null, got {value!r}")
        return None if value is None else [_field_number(name, g) for g in value]
    number = _field_number(name, value, integer=kind == "int")
    return math.radians(number) if name in _ANGLES else number


@dataclass(frozen=True)
class OemConfig:
    """Full parameterization of one OEM link.

    Attributes
    ----------
    n_tx, m_rx : number of transmit / receive UCAs (N, M).
    u_elems, v_elems : array-elements per transmit / receive UCA (U, V).
    r1 : radius of the OEM transmit/receive circle (m).
    r2 : UCA radius (m).
    wavelength : carrier wavelength (m).
    phi : divergence angle of the vortex beam (rad).
    phi_c : equivalent convergent angle after the reflector (rad).
    theta : azimuth offset of the link axis projection (rad).
    beta : lumped amplitude/phase constant of the link budget.
    link_distance : center-to-center transmit/receive distance (m).
    conv_gains : per-mode convergence amplitude gains, length U, or None
        to use the equal-gain idealization computed by the channel module.
    noise_var : per-element noise variance (W).
    """

    n_tx: int
    m_rx: int
    u_elems: int
    v_elems: int
    r1: float
    r2: float
    wavelength: float
    phi: float
    phi_c: float
    theta: float = 0.0
    beta: complex = 1.0 + 0.0j
    link_distance: float = 100.0
    conv_gains: Optional[tuple[float, ...]] = None
    noise_var: float = 1.0

    def __post_init__(self):
        if self.conv_gains is not None:
            object.__setattr__(self, "conv_gains", tuple(float(g) for g in self.conv_gains))
        self.validate()

    def validate(self) -> None:
        for name in ("n_tx", "m_rx", "u_elems", "v_elems"):
            # a count meets floats in the channel products, V * c_l * B
            if _field_number(name, getattr(self, name), integer=True) > sys.float_info.max:
                raise InvalidConfigError(
                    f"{name} must not exceed the float range ({sys.float_info.max:g})")
        problems = []
        if self.n_tx < 1 or self.m_rx < 1:
            problems.append("need at least one transmit and one receive UCA")
        if self.u_elems < 1:
            problems.append("need at least one array-element per transmit UCA")
        if self.v_elems < self.u_elems:
            problems.append(
                f"alias-free decomposition needs V >= U, got V={self.v_elems} U={self.u_elems}"
            )
        lengths = [name for name in _LENGTHS
                   if not _LENGTH_MIN <= getattr(self, name) <= _LENGTH_MAX]
        problems += [f"{name} must lie in [{_LENGTH_MIN:g}, {_LENGTH_MAX:g}] m,"
                     f" got {getattr(self, name)}" for name in lengths]
        if not (lengths or self.r1 > self.r2):
            problems.append(f"need r1 > r2, got r1={self.r1} r2={self.r2}")
        if not (0.0 < self.phi < math.pi / 2):
            problems.append(f"divergence angle phi must lie in (0, pi/2), got {self.phi}")
        if not (0.0 <= self.phi_c <= self.phi):
            problems.append(f"convergent angle phi_c must lie in [0, phi], got {self.phi_c}")
        if not math.isfinite(self.theta):
            problems.append(f"theta must be finite, got {self.theta}")
        if not cmath.isfinite(self.beta):
            problems.append(f"beta must be finite, got {self.beta}")
        elif not lengths:
            # the largest |B[m, n]|, at d = D, in _base_gain's order: |beta| * lambda first
            gain = math.hypot(self.beta.real, self.beta.imag) * self.wavelength
            if not math.isfinite(gain / (4.0 * math.pi * self.link_distance)):
                problems.append(f"beta={self.beta} gives a distance gain |beta| * wavelength"
                                " / (4 pi link_distance) beyond the float range")
        if self.conv_gains is not None:
            if len(self.conv_gains) != self.u_elems:
                problems.append(
                    f"conv_gains needs exactly U={self.u_elems} entries, got {len(self.conv_gains)}"
                )
            elif not all(0.0 <= g < math.inf for g in self.conv_gains):
                problems.append("conv_gains entries must be finite and nonnegative")
        if not (0.0 <= self.noise_var < math.inf):
            problems.append(f"noise_var must be nonnegative and finite, got {self.noise_var}")
        if problems:
            raise InvalidConfigError("; ".join(problems))

    def with_(self, **kwargs) -> "OemConfig":
        """Return a modified copy; dataclasses.replace re-runs the validation."""
        return replace(self, **kwargs)

    # -- JSON round trip ---------------------------------------------------

    def to_json_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        for angle in _ANGLES:
            d[angle] = math.degrees(d[angle])
        d["beta"] = [self.beta.real, self.beta.imag]
        d["conv_gains"] = None if self.conv_gains is None else list(self.conv_gains)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "OemConfig":
        """Config from a file's JSON object; absent optional fields take their defaults.

        Fields are converted in declaration order, so the first bad one
        names the error.
        """
        schema = fields(cls)
        missing = {f.name for f in schema if f.default is MISSING} - d.keys()
        if missing:
            raise InvalidConfigError(f"config missing fields: {sorted(missing)}")
        unknown = d.keys() - {f.name for f in schema}
        if unknown:
            raise InvalidConfigError(f"config has unknown fields: {sorted(unknown)}")
        return cls(**{f.name: _from_json(f.name, f.type, d[f.name]) for f in schema if f.name in d})

    def save(self, path) -> None:
        """Write the config as JSON through ``_replace_on_success``."""
        with _replace_on_success(path) as fh:
            fh.write(json.dumps(self.to_json_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "OemConfig":
        """Config from a JSON file; any unreadable or invalid file raises InvalidConfigError."""
        try:
            d = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        except OSError as exc:
            raise InvalidConfigError(str(exc)) from exc
        except UnicodeDecodeError as exc:
            raise InvalidConfigError(f"config file {path} is not UTF-8: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
            raise InvalidConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(d, dict):
            raise InvalidConfigError("config file must hold a JSON object")
        return cls.from_json_dict(d)
