"""Pipeline configuration: INI-style key-value sections, strictly validated.

Every numeric range and referenced file is checked before any computation;
violations raise :class:`ConfigError` naming the offending ``section.key``.
The resolved configuration (defaults filled in) can be echoed back to disk
and re-parses to an equivalent configuration.
"""

import configparser
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

__all__ = ["PipelineConfig", "load_config"]

_DEFAULTS = {
    "paths": {
        "output_dir": "out",
        "boundary": "",
        "areas": "",
        "data": "",
        "cluster_locations": "",
        "household_sizes": "",
        "adjacency": "",
    },
    "run": {
        "seed": "0",
        "samples": "1000",
        "threads": "",
    },
    "model": {
        "interior_max_edge": "0.6",
        "extension_factor": "1.5",
        "exterior_max_edge": "",
        "nugget": "true",
        "sigma2_init": "0.1",
        "range_init": "2.0",
        "nugget_var_init": "0.01",
        "fit_spde": "true",
        "fit_bym": "true",
    },
    "survey": {
        "total_psu": "46034",
        "households_per_ea": "100",
        "fix_policy": "shrink",
    },
    "sim": {
        "beta0": repr(float(np.log(0.07 / 0.93))),
        "tau": repr(float(np.exp(-0.5))),
        "kappa": repr(float(np.exp(0.5))),
        "nugget_var": "0.01",
        "n_clusters": "400",
        "m_min": "4",
        "m_max": "11",
        "truth_resolution": "200",
    },
    "functionals": {
        "u": "0.07",
        "alpha_level": "0.05",
        "points_per_area": "100",
        "grid_spacing": "",
    },
}


def _get_float(parser, section, key, lo=None, hi=None, strict_lo=False):
    raw = parser.get(section, key)
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}", f"not a number: {raw!r}")
    if not np.isfinite(val):
        raise ConfigError(f"{section}.{key}", "must be finite")
    if lo is not None and (val < lo or (strict_lo and val <= lo)):
        raise ConfigError(f"{section}.{key}",
                          f"must be {'>' if strict_lo else '>='} {lo}")
    if hi is not None and val > hi:
        raise ConfigError(f"{section}.{key}", f"must be <= {hi}")
    return val


def _get_int(parser, section, key, lo=None):
    raw = parser.get(section, key)
    try:
        val = int(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}", f"not an integer: {raw!r}")
    if lo is not None and val < lo:
        raise ConfigError(f"{section}.{key}", f"must be >= {lo}")
    return val


def _get_bool(parser, section, key):
    raw = parser.get(section, key).strip().lower()
    if raw in ("true", "1", "yes", "on"):
        return True
    if raw in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{section}.{key}", f"not a boolean: {raw!r}")


@dataclass
class PipelineConfig:
    """Typed view of the pipeline configuration."""

    output_dir: str
    boundary: str
    areas: str
    data: str
    cluster_locations: str
    household_sizes: str
    adjacency: str
    seed: int
    samples: int
    threads: int
    interior_max_edge: float
    extension_factor: float
    exterior_max_edge: float
    nugget: bool
    sigma2_init: float
    range_init: float
    nugget_var_init: float
    fit_spde: bool
    fit_bym: bool
    total_psu: int
    households_per_ea: int
    fix_policy: str
    sim_beta0: float
    sim_tau: float
    sim_kappa: float
    sim_nugget_var: float
    sim_n_clusters: int
    sim_m_min: int
    sim_m_max: int
    sim_truth_resolution: int
    u: float
    alpha_level: float
    points_per_area: int
    grid_spacing: float
    raw: dict = field(default_factory=dict, repr=False)

    def echo(self, path):
        """Write the resolved configuration; re-parses to the same values."""
        parser = configparser.ConfigParser()
        for section, keys in self.raw.items():
            parser[section] = dict(keys)
        with open(path, "w") as fh:
            parser.write(fh)

    def out(self, name):
        return os.path.join(self.output_dir, name)


def load_config(path, require_files=()):
    """Parse and validate a configuration file.

    ``require_files`` lists path keys (e.g. "boundary") whose referenced
    files must exist for the command being run.
    """
    if not os.path.exists(path):
        raise ConfigError("config", f"file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError("config", f"parse error: {exc}")
    for section in parser.sections():
        if section not in _DEFAULTS:
            raise ConfigError(section, "unknown section")
        for key in parser[section]:
            if key not in _DEFAULTS[section]:
                raise ConfigError(f"{section}.{key}", "unknown key")
    for section, keys in _DEFAULTS.items():
        if not parser.has_section(section):
            parser.add_section(section)
        for key, default in keys.items():
            if not parser.has_option(section, key):
                parser.set(section, key, default)

    interior = _get_float(parser, "model", "interior_max_edge", lo=0,
                          strict_lo=True)
    # a blank derived value resolves from other settings; PREVMAP_THREADS
    # is read here and nowhere else
    for section, key, value in (
            ("model", "exterior_max_edge", repr(5.0 * interior)),
            ("functionals", "grid_spacing", repr(interior / 2.0)),
            ("run", "threads", os.environ.get("PREVMAP_THREADS") or "1")):
        if not parser.get(section, key).strip():
            parser.set(section, key, value)
    exterior = _get_float(parser, "model", "exterior_max_edge", lo=interior)
    spacing = _get_float(parser, "functionals", "grid_spacing", lo=0,
                         strict_lo=True)
    threads = _get_int(parser, "run", "threads", lo=1)

    m_min = _get_int(parser, "sim", "m_min", lo=1)
    m_max = _get_int(parser, "sim", "m_max", lo=1)
    hh_per_ea = _get_int(parser, "survey", "households_per_ea", lo=1)
    if not (m_min <= m_max <= hh_per_ea):
        raise ConfigError("sim.m_max",
                          "need m_min <= m_max <= survey.households_per_ea")
    fix_policy = parser.get("survey", "fix_policy").strip().lower()
    if fix_policy not in ("shrink", "none"):
        raise ConfigError("survey.fix_policy", f"unknown policy {fix_policy!r}")

    cfg = PipelineConfig(
        output_dir=parser.get("paths", "output_dir"),
        boundary=parser.get("paths", "boundary"),
        areas=parser.get("paths", "areas"),
        data=parser.get("paths", "data"),
        cluster_locations=parser.get("paths", "cluster_locations"),
        household_sizes=parser.get("paths", "household_sizes"),
        adjacency=parser.get("paths", "adjacency"),
        seed=_get_int(parser, "run", "seed", lo=0),
        samples=_get_int(parser, "run", "samples", lo=1),
        threads=threads,
        interior_max_edge=interior,
        extension_factor=_get_float(parser, "model", "extension_factor", lo=1),
        exterior_max_edge=exterior,
        nugget=_get_bool(parser, "model", "nugget"),
        sigma2_init=_get_float(parser, "model", "sigma2_init", lo=0,
                               strict_lo=True),
        range_init=_get_float(parser, "model", "range_init", lo=0,
                              strict_lo=True),
        nugget_var_init=_get_float(parser, "model", "nugget_var_init", lo=0,
                                   strict_lo=True),
        fit_spde=_get_bool(parser, "model", "fit_spde"),
        fit_bym=_get_bool(parser, "model", "fit_bym"),
        total_psu=_get_int(parser, "survey", "total_psu", lo=1),
        households_per_ea=hh_per_ea,
        fix_policy=fix_policy,
        sim_beta0=_get_float(parser, "sim", "beta0"),
        sim_tau=_get_float(parser, "sim", "tau", lo=0, strict_lo=True),
        sim_kappa=_get_float(parser, "sim", "kappa", lo=0, strict_lo=True),
        sim_nugget_var=_get_float(parser, "sim", "nugget_var", lo=0),
        sim_n_clusters=_get_int(parser, "sim", "n_clusters", lo=1),
        sim_m_min=m_min,
        sim_m_max=m_max,
        sim_truth_resolution=_get_int(parser, "sim", "truth_resolution", lo=2),
        u=_get_float(parser, "functionals", "u", lo=0, strict_lo=True),
        alpha_level=_get_float(parser, "functionals", "alpha_level", lo=0,
                               strict_lo=True, hi=0.5),
        points_per_area=_get_int(parser, "functionals", "points_per_area",
                                 lo=1),
        grid_spacing=spacing,
        raw={s: dict(parser[s]) for s in parser.sections()},
    )
    if cfg.u >= 1.0:
        raise ConfigError("functionals.u", "must lie in (0, 1)")
    # record resolved derived values so the echo round-trips exactly
    cfg.raw["model"]["exterior_max_edge"] = repr(exterior)
    cfg.raw["functionals"]["grid_spacing"] = repr(spacing)
    cfg.raw["run"]["threads"] = str(threads)
    for key in require_files:
        p = getattr(cfg, key)
        if not p:
            raise ConfigError(f"paths.{key}", "required for this command")
        if not os.path.exists(p):
            raise ConfigError(f"paths.{key}", f"file not found: {p}")
    return cfg
