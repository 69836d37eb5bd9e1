"""Run configuration: JSON in, validated dataclass out.

Numeric-heavy runs are configured by a JSON file rather than flags; the
command line only selects the command and the config path.  Unknown keys
are rejected so typos cannot silently fall back to defaults, and the
SHA-256 of the canonical defaults-filled document stamps every output
file so results stay traceable to their configuration.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict

from .geometry import CellGeometry, build_cell_geometry


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


@dataclass
class RunConfig:
    side: float = 1.0
    center: tuple[float, float] = (0.5, 0.5)
    radius: float = 0.25
    height: float = 1.0
    n_div: int = 64
    eps_list: list[float] = field(default_factory=lambda: [0.4, 0.2, 0.1, 0.05])
    j_max: int = 8
    k_total: int = 8
    n_terms: int = 500
    eig_tol: float = 1e-9
    root_tol: float = 1e-12
    out_dir: str = "."

    def geometry(self) -> CellGeometry:
        return build_cell_geometry(self.side, tuple(self.center), self.radius,
                                   self.height)

    def canonical_document(self) -> dict:
        doc = asdict(self)
        doc["center"] = list(doc["center"])
        return doc

    def config_hash(self) -> str:
        # the hash identifies the numeric run, not where it is written
        doc = self.canonical_document()
        doc.pop("out_dir")
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_number(value, kind=(int, float)) -> bool:
    # bool subclasses int, but a JSON true/false is not a number
    return isinstance(value, kind) and not isinstance(value, bool)


def validate_config(doc: dict) -> RunConfig:
    """Validate a raw JSON document against the schema and defaults."""
    merged = asdict(RunConfig())
    unknown = set(doc) - set(merged)
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    merged.update(doc)

    _require(_is_number(merged["n_div"], int) and merged["n_div"] >= 8,
             f"n_div: must be an integer >= 8, got {merged['n_div']!r}")
    for key in ("side", "radius", "height", "eig_tol", "root_tol"):
        _require(_is_number(merged[key]) and merged[key] > 0,
                 f"{key}: must be positive, got {merged[key]!r}")
        merged[key] = float(merged[key])
    for key in ("j_max", "k_total", "n_terms"):
        _require(_is_number(merged[key], int) and merged[key] >= 1,
                 f"{key}: must be a positive integer, got {merged[key]!r}")
    _require(merged["n_terms"] >= 50,
             f"n_terms: must be >= 50, got {merged['n_terms']}")
    center = merged["center"]
    _require(isinstance(center, (list, tuple)) and len(center) == 2
             and all(_is_number(v) for v in center),
             f"center: must be a pair of numbers, got {center!r}")
    eps_list = merged["eps_list"]
    _require(isinstance(eps_list, list) and len(eps_list) >= 1
             and all(_is_number(v) and 0 < v <= 1 for v in eps_list),
             f"eps_list: must be a nonempty list of values in (0, 1], got {eps_list!r}")
    _require(all(b < a for a, b in zip(eps_list, eps_list[1:])),
             f"eps_list: must be strictly decreasing, got {eps_list}")
    _require(isinstance(merged["out_dir"], str),
             f"out_dir: must be a string, got {merged['out_dir']!r}")

    merged["center"] = (float(center[0]), float(center[1]))
    merged["eps_list"] = [float(v) for v in eps_list]
    config = RunConfig(**merged)
    try:
        config.geometry()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def parse_config(path) -> RunConfig:
    """Load and validate a JSON config file; missing keys get defaults."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return validate_config(doc)
