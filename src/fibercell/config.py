"""Run configuration: JSON in, validated dataclass out.

Numeric-heavy runs are configured by a JSON file rather than flags; the
command line only selects the command and the config path.  Unknown keys
are rejected so typos cannot silently fall back to defaults, and the
SHA-256 of the canonical defaults-filled document stamps every output
file so results stay traceable to their configuration.  Every result
file is written by ``write_table`` or ``write_json``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields

from .geometry import CellGeometry, GeometryError, is_number


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


@dataclass
class RunConfig:
    """One run's parameters.  Construction checks every field (a
    ``ConfigError`` whose message starts with the key) and stores the
    numbers as floats, so ``1`` and ``1.0`` give the same config."""

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

    def __post_init__(self):
        _require(is_number(self.n_div, int) and self.n_div >= 8,
                 f"n_div: must be an integer >= 8, got {self.n_div!r}")
        doc = vars(self)  # the fields by name; writing to it sets them
        for key in ("side", "radius", "height", "eig_tol", "root_tol"):
            _require(is_number(doc[key]) and doc[key] > 0,
                     f"{key}: must be finite and positive, got {doc[key]!r}")
            doc[key] = float(doc[key])
        for key in ("j_max", "k_total", "n_terms"):
            _require(is_number(doc[key], int) and doc[key] >= 1,
                     f"{key}: must be a positive integer, got {doc[key]!r}")
        _require(self.n_terms >= 50,
                 f"n_terms: must be >= 50, got {self.n_terms}")
        center = self.center
        _require(isinstance(center, (list, tuple)) and len(center) == 2
                 and all(is_number(v) for v in center),
                 f"center: must be a pair of finite numbers, got {center!r}")
        eps_list = self.eps_list
        _require(isinstance(eps_list, list) and len(eps_list) >= 1
                 and all(is_number(v) and 0 < v <= 1 for v in eps_list),
                 f"eps_list: must be a nonempty list of values in (0, 1], got {eps_list!r}")
        _require(all(b < a for a, b in zip(eps_list, eps_list[1:])),
                 f"eps_list: must be strictly decreasing, got {eps_list}")
        _require(isinstance(self.out_dir, str),
                 f"out_dir: must be a string, got {self.out_dir!r}")
        self.eps_list = [float(v) for v in eps_list]
        try:
            self.center = self.geometry().center  # a pair of floats
        except GeometryError as exc:
            raise ConfigError(str(exc)) from exc

    def geometry(self) -> CellGeometry:
        return CellGeometry(self.side, self.center, self.radius, self.height)

    def config_hash(self) -> str:
        # the hash identifies the numeric run, not where it is written
        doc = asdict(self)
        doc["center"] = list(doc["center"])
        doc.pop("out_dir")
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def write_table(path, header, rows, config_hash: str = "") -> None:
    """CSV result file: a ``# config_hash=`` line when a hash is given, the
    header, then one line per row; ints as they are, floats to 17
    significant digits, so every double reads back exactly."""
    with open(path, "w", newline="") as fh:
        if config_hash:
            fh.write(f"# config_hash={config_hash}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, int) else f"{v:.17g}"
                              for v in row) + "\n")


def write_json(path, payload: dict) -> None:
    """JSON result file: keys sorted, two-space indent, trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def validate_config(doc: dict) -> RunConfig:
    """Build a :class:`RunConfig` from a raw JSON document: unknown keys are
    refused, missing keys get defaults, and the fields check themselves."""
    unknown = set(doc) - {f.name for f in fields(RunConfig)}
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**doc)


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
