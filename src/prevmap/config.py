"""Pipeline configuration: INI-style key-value sections, strictly validated.

Each setting is declared once, as a row of ``_SETTINGS``: its section, key,
default, type and bounds.  The defaults, the fields of
:class:`PipelineConfig` (the key, or ``sim_<key>`` for the ``[sim]``
section) and the parsing loop all come from that table.  Every numeric
range and referenced file is checked before any computation; violations
raise :class:`ConfigError` naming the offending ``section.key``.  The
resolved configuration (defaults filled in) can be echoed back to disk and
re-parses to an equivalent configuration.
"""

import configparser
import math
import os
from dataclasses import field, make_dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError

__all__ = ["PipelineConfig", "load_config"]


class _Setting(NamedTuple):
    section: str
    key: str
    default: str
    type: type = str
    lo: float = None      # lower bound, exclusive when ``strict``
    strict: bool = False
    hi: float = None

    @property
    def attr(self):
        return f"sim_{self.key}" if self.section == "sim" else self.key


_S = _Setting
# in echo order: sections, and keys within a section, as listed
_SETTINGS = (
    _S("paths", "output_dir", "out"),
    _S("paths", "boundary", ""),
    _S("paths", "areas", ""),
    _S("paths", "data", ""),
    _S("paths", "cluster_locations", ""),
    _S("paths", "household_sizes", ""),
    _S("paths", "adjacency", ""),
    _S("run", "seed", "0", int, lo=0),
    _S("run", "samples", "1000", int, lo=1),
    # read by nothing; kept so that configs with threads = 1 still parse
    _S("run", "threads", "1", int, lo=1, hi=1),
    _S("model", "interior_max_edge", "0.6", float, lo=0, strict=True),
    _S("model", "extension_factor", "1.5", float, lo=1),
    _S("model", "exterior_max_edge", "", float),
    _S("model", "nugget", "true", bool),
    _S("model", "sigma2_init", "0.1", float, lo=0, strict=True),
    _S("model", "range_init", "2.0", float, lo=0, strict=True),
    _S("model", "nugget_var_init", "0.01", float, lo=0, strict=True),
    _S("model", "fit_spde", "true", bool),
    _S("model", "fit_bym", "true", bool),
    _S("survey", "total_psu", "46034", int, lo=1),
    _S("survey", "households_per_ea", "100", int, lo=1),
    _S("sim", "beta0", repr(float(np.log(0.07 / 0.93))), float),
    _S("sim", "tau", repr(float(np.exp(-0.5))), float, lo=0, strict=True),
    _S("sim", "kappa", repr(float(np.exp(0.5))), float, lo=0, strict=True),
    _S("sim", "nugget_var", "0.01", float, lo=0),
    _S("sim", "n_clusters", "400", int, lo=1),
    _S("sim", "m_min", "4", int, lo=1),
    _S("sim", "m_max", "11", int, lo=1),
    _S("sim", "truth_resolution", "200", int, lo=2),
    _S("functionals", "u", "0.07", float, lo=0, strict=True),
    _S("functionals", "alpha_level", "0.05", float, lo=0, strict=True,
       hi=0.5),
    _S("functionals", "points_per_area", "100", int, lo=1),
    _S("functionals", "grid_spacing", "", float, lo=0, strict=True),
)

# a blank derived value resolves from the values parsed before it
_DERIVED = {
    "exterior_max_edge": lambda v: repr(5.0 * v["interior_max_edge"]),
    "grid_spacing": lambda v: repr(v["interior_max_edge"] / 2.0),
}


def _parse(setting, raw):
    name = f"{setting.section}.{setting.key}"
    if setting.type is str:
        return raw
    if setting.type is bool:
        raw = raw.strip().lower()
        if raw in ("true", "1", "yes", "on"):
            return True
        if raw in ("false", "0", "no", "off"):
            return False
        raise ConfigError(name, f"not a boolean: {raw!r}")
    try:
        val = setting.type(raw)
    except ValueError:
        what = "an integer" if setting.type is int else "a number"
        raise ConfigError(name, f"not {what}: {raw!r}")
    if setting.type is float and not math.isfinite(val):
        raise ConfigError(name, "must be finite")
    lo, strict = setting.lo, setting.strict
    if lo is not None and (val < lo or (strict and val <= lo)):
        raise ConfigError(name, f"must be {'>' if strict else '>='} {lo}")
    if setting.hi is not None and val > setting.hi:
        raise ConfigError(name, f"must be <= {setting.hi}")
    return val


def _echo(self, path):
    """Write the resolved configuration; re-parses to the same values."""
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in self.raw.items():
        parser[section] = dict(keys)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def _out(self, name):
    return os.path.join(self.output_dir, name)


PipelineConfig = make_dataclass(
    "PipelineConfig",
    [(s.attr, s.type) for s in _SETTINGS]
    + [("raw", dict, field(default_factory=dict, repr=False))],
    namespace={"__doc__": "Typed view of the pipeline configuration.",
               "__module__": __name__, "echo": _echo, "out": _out})


def load_config(path, require_files=()):
    """Parse and validate a configuration file.

    ``require_files`` lists the path keys (e.g. "boundary") the command
    being run needs set.  Every input file a ``[paths]`` key names must
    exist, whichever command runs.
    """
    if not os.path.isfile(path):
        raise ConfigError("config", f"file not found: {path}")
    # a value is its text as written: no ``%`` interpolation
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"parse error: {exc}")
    known = {(s.section, s.key) for s in _SETTINGS}
    for section in parser.sections():
        if section not in {s.section for s in _SETTINGS}:
            raise ConfigError(section, "unknown section")
        for key in parser[section]:
            if (section, key) not in known:
                raise ConfigError(f"{section}.{key}", "unknown key")
    for s in _SETTINGS:
        if not parser.has_section(s.section):
            parser.add_section(s.section)
        if not parser.has_option(s.section, s.key):
            parser.set(s.section, s.key, s.default)

    values = {}
    for s in _SETTINGS:
        raw = parser.get(s.section, s.key)
        if s.attr in _DERIVED and not raw.strip():
            raw = _DERIVED[s.attr](values)
        values[s.attr] = _parse(s, raw)
        if s.attr in _DERIVED:
            # record the resolved value so the echo round-trips exactly
            parser.set(s.section, s.key, repr(values[s.attr]))

    interior = values["interior_max_edge"]
    if values["exterior_max_edge"] < interior:
        raise ConfigError("model.exterior_max_edge", f"must be >= {interior}")
    if not (values["sim_m_min"] <= values["sim_m_max"]
            <= values["households_per_ea"]):
        raise ConfigError("sim.m_max", "need sim.m_min <= sim.m_max <= "
                          "survey.households_per_ea")
    if values["u"] >= 1.0:
        raise ConfigError("functionals.u", "must lie in (0, 1)")
    if not values["output_dir"].strip():
        raise ConfigError("paths.output_dir", "must name a directory")
    cfg = PipelineConfig(**values,
                         raw={s: dict(parser[s]) for s in parser.sections()})
    for key in require_files:
        if not getattr(cfg, key):
            raise ConfigError(f"paths.{key}", "required for this command")
    for s in _SETTINGS:
        path = getattr(cfg, s.attr)
        if (s.section == "paths" and s.key != "output_dir" and path
                and not os.path.isfile(path)):
            raise ConfigError(f"paths.{s.key}", f"file not found: {path}")
    return cfg
