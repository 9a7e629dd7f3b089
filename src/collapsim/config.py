"""Run configuration: flat key=value text files with # comments.

The format is deliberately trivial to parse in any language.  The scaling
constraint mu * alpha / 2 = lam is enforced at load time: when both mu and
lam are given, alpha must either be omitted (then derived) or match to
1e-12 relative.  The seed is mandatory; every artifact of a run is a pure
function of (config, seed).
"""

import hashlib
import math
from dataclasses import dataclass, fields

from .errors import ConfigError, InvalidParameterError
from .rng import coarse_ratio

MODELS = ("grw", "diosi", "hybrid", "master", "verify")

_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")


def _parse_bool(raw, key):
    low = raw.strip().lower()
    if low in _BOOL_TRUE:
        return True
    if low in _BOOL_FALSE:
        return False
    raise ConfigError(f"key {key}: expected a boolean, got {raw!r}")


def _parse_float_list(raw):
    parts = [p for p in raw.replace(",", " ").split() if p]
    return tuple(float(p) for p in parts)


def _parse_int_list(raw):
    parts = [p for p in raw.replace(",", " ").split() if p]
    return tuple(int(p) for p in parts)


@dataclass
class RunConfig:
    model: str = None
    seed: int = None
    x_min: float = -20.0
    x_max: float = 20.0
    n_points: int = 256
    t_max: float = 1.0
    sample_times: tuple = (1.0,)
    n_trajectories: int = 100
    n_substeps: int = 256
    lam: float = None
    mu: float = None
    alpha: float = None
    potential: str = "none"
    potential_amplitude: float = 0.5
    kinetic: bool = True
    deterministic_times: bool = False
    wiener_resolution: float = None
    packet_center: float = 0.0
    packet_sigma: float = 1.0
    packet_momentum: float = 0.0
    master_dt: float = 1e-3
    master_model: str = None
    criteria: tuple = ()
    output_dir: str = None

    def validate(self):
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.seed is None:
            raise ConfigError("seed is mandatory")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.model != "hybrid":  # the keys only the hybrid process reads
            if self.deterministic_times:
                raise ConfigError(f"deterministic_times: {self.model} runs do not use it")
            if self.wiener_resolution is not None:
                raise ConfigError(f"wiener_resolution: {self.model} runs do not use it")
        derives_alpha = self.model == "hybrid" or (self.mu is not None and self.lam is not None)
        if derives_alpha or self.model in ("grw", "diosi"):
            for key, value in (("mu", self.mu), ("lambda", self.lam), ("alpha", self.alpha)):
                if value is not None and not 0.0 < value < math.inf:  # NaN fails too
                    raise ConfigError(f"{key} must be positive and finite, got {value}")
        if derives_alpha:
            if self.mu is None or self.lam is None:
                raise ConfigError("hybrid runs need both mu and lambda")
            derived = 2.0 * self.lam / self.mu
            if self.alpha is None:
                self.alpha = derived
            elif abs(self.alpha - derived) > 1e-12 * max(abs(derived), 1.0):
                raise ConfigError(
                    f"alpha={self.alpha} violates the scaling constraint "
                    f"2*lambda/mu={derived}")
        if self.model == "hybrid" and self.wiener_resolution is not None:
            try:
                coarse_ratio(self.wiener_resolution, self.mu)
            except InvalidParameterError as exc:
                raise ConfigError(f"wiener_resolution: {exc}") from None
        if self.model == "grw" and (self.mu is None or self.alpha is None):
            raise ConfigError("grw runs need mu and alpha")
        if self.model == "diosi" and self.lam is None:
            raise ConfigError("diosi runs need lambda")
        if self.model == "master":
            if not self.sample_times:
                raise ConfigError("master runs need a sample time")
            kind = self.master_model
            if kind is None:
                if self.lam is not None and self.mu is None:
                    kind = "diosi"
                elif self.mu is not None and self.alpha is not None:
                    kind = "grw"
                else:
                    raise ConfigError("master runs need master_model or parameters")
                self.master_model = kind
            if kind not in ("grw", "diosi"):
                raise ConfigError("master_model must be grw or diosi")
        if self.potential not in ("none", "cos"):
            raise ConfigError("potential must be 'none' or 'cos'")
        if not all(0 <= t <= self.t_max for t in self.sample_times):  # NaN fails too
            raise ConfigError("sample_times must lie in [0, t_max]")
        if self.n_trajectories < 0:
            raise ConfigError(f"n_trajectories must be >= 0, got {self.n_trajectories}")
        return self

    _KEY_ALIASES = {"lambda": "lam"}

    @classmethod
    def from_text(cls, text):
        cfg = cls()
        parsers = {
            "model": str, "seed": int, "x_min": float, "x_max": float,
            "n_points": int, "t_max": float,
            "sample_times": _parse_float_list, "n_trajectories": int,
            "n_substeps": int, "lam": float, "mu": float, "alpha": float,
            "potential": str, "potential_amplitude": float,
            "kinetic": None, "deterministic_times": None,
            "wiener_resolution": float,
            "packet_center": float, "packet_sigma": float,
            "packet_momentum": float, "master_dt": float, "master_model": str,
            "criteria": _parse_int_list, "output_dir": str,
        }
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"line {lineno}: expected key = value")
            key, raw = (part.strip() for part in body.split("=", 1))
            key = cls._KEY_ALIASES.get(key, key)
            if key not in parsers:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            parser = parsers[key]
            try:
                value = _parse_bool(raw, key) if parser is None else parser(raw)
            except ConfigError:
                raise
            except Exception as exc:
                raise ConfigError(f"line {lineno}: bad value for {key}: {exc}")
            setattr(cfg, key, value)
        return cfg.validate()

    @classmethod
    def from_file(cls, path):
        """Parse the config file at ``path``; ConfigError if it is not UTF-8 text."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
        return cls.from_text(text)

    def canonical_text(self):
        """Deterministic rendering used for hashing and archive binding."""
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, tuple):
                rendered = ",".join(repr(v) for v in value)
            elif isinstance(value, bool):
                rendered = "true" if value else "false"
            elif isinstance(value, float):
                rendered = repr(value)
            else:
                rendered = str(value)
            lines.append(f"{f.name}={rendered}")
        return "\n".join(lines) + "\n"

    def sha256(self):
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()
