"""Command-line surface: experiment presets, config ingestion, CSV/JSON output.

Subcommands
-----------
pattern    screen patterns by one or more methods (``--preset fig6``)
converge   windowed time-sum amplitudes vs window width (``--preset fig4``)
phasediff  near-field phase records for both methods (``--preset fig6``)
packet     wave-packet snapshots on an (x, t) grid
faddeeva   evaluate w(z) for one complex number

Configs are single JSON documents with SI units spelled out in the field
names (``slit_separation_m``, ``duration_s``, ...), which keeps the nm/um
zoo of the underlying experiments out of the data path.  Every run returns
a result envelope carrying an echo of the effective config and a provenance
block (constants, node counts, achieved error estimates, version), so a
serialized envelope can be re-run bit-identically from its own echo.

Exit codes: 0 success, 2 validation error, 3 numeric failure (a node
budget below the fixed rule, a NaN or infinite result, which is never
written, or an array too large to allocate), 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .doubleslit import (
    Method,
    SlitGeometry,
    Timing,
    TimingConvention,
    discrepancy_report,
    leg_lengths,
    pattern,
)
from .errors import NodeBudgetError, NonFiniteResultError
from .faddeeva import faddeeva_w, time_sum_prefactor
from .kinematics import (
    ELECTRON_MASS,
    HBAR,
    PLANCK_H,
    ELECTRON,
    ParticleSpecies,
    de_broglie_wavelength,
)
from .propagator import TwoLegPath
from .timesum import DOMAINS, TimeSumConfig, evaluate_window
from .wavepacket import WavePacketParams, packet_amplitude

_CONSTANTS_BLOCK = {
    "hbar_J_s": HBAR,
    "planck_h_J_s": PLANCK_H,
    "electron_mass_kg": ELECTRON_MASS,
}

#: screen points may lie at most this many times the largest geometry
#: length from the axis; farther out the path phases lose all precision
_SCREEN_REACH = 1e3

# ---------------------------------------------------------------------------
# presets


def _aligned_fig4_duration() -> float:
    """Total duration near 6.72e-13 s with phi0 = pi (mod 2 pi) exactly.

    The quoted parameters put the stationary phase only approximately on the
    half-turn; the preset nudges the duration by ~1e-5 relative so that the
    windowed argument starts exactly at -pi and settles exactly at -3 pi/4.
    """
    leg = 3.37e-6
    duration = 6.72e-13
    phi0 = 2.0 * ELECTRON_MASS * leg * leg / (HBAR * duration)
    turns = round((phi0 - math.pi) / (2.0 * math.pi))
    phi0_aligned = math.pi + 2.0 * math.pi * turns
    return 2.0 * ELECTRON_MASS * leg * leg / (HBAR * phi0_aligned)


def fig4_preset() -> dict:
    """Single-slit time-sum convergence study (symmetric 3.37 um legs)."""
    duration = _aligned_fig4_duration()
    fractions = [
        0.02, 0.05, 0.08, 0.12, 0.16, 0.20, 0.25, 0.30,
        0.36, 0.42, 0.50, 0.58, 0.66, 0.75, 0.85, 1.0,
    ]
    return {
        "species": "electron",
        "path": {"leg1_m": 3.37e-6, "leg2_m": 3.37e-6, "duration_s": duration},
        "windows_s": [f * duration for f in fractions],
        "domain": "u_domain",
        "max_nodes": 30_000_000,
        "phase_step_cap_rad": math.pi / 4.0,
    }


def fig6_preset() -> dict:
    """Near-field in-line layout: 273 nm separation, 63 nm widths, 3.37 um arms.

    The source and the detection region sit in line with slit 1; the total
    duration follows from 1e7 m/s over the straight path.  Patterns use one
    transit point per slit center: the two-path picture whose phase records
    this preset is built to compare.  The screen grid spans three fringes
    around the in-line point.
    """
    distance = 3.37e-6
    separation = 273e-9
    speed = 1.0e7
    duration = 2.0 * distance / speed
    wavelength = de_broglie_wavelength(ELECTRON, speed)
    fringe = wavelength * distance / separation
    inline_y = 0.5 * separation
    return {
        "species": "electron",
        "geometry": {
            "source_y_m": inline_y,
            "slit1_y_m": inline_y,
            "slit2_y_m": -inline_y,
            "slit1_width_m": 63e-9,
            "slit2_width_m": 63e-9,
            "dist_source_slits_m": distance,
            "dist_slits_screen_m": distance,
        },
        "timing": {"convention": "equal_total_time", "duration_s": duration},
        "methods": ["intuitive", "stationary_phase", "time_summed"],
        "screen": {
            "min_y_m": inline_y - 3.0 * fringe,
            "max_y_m": inline_y + 3.0 * fringe,
            "count": 1024,
        },
        "samples_per_slit": 1,
        "timesum": {
            "window_s": 6.88e-14,
            "max_nodes": 2_000_000,
            "domain": "t_domain",
            "phase_step_cap_rad": math.pi / 4.0,
        },
        "phasediff": {
            "slit_separation_m": separation,
            "length_m": distance,
            "duration_s": duration,
        },
    }


PRESETS = {"fig4": fig4_preset, "fig6": fig6_preset}

# ---------------------------------------------------------------------------
# config parsing (ValueError messages carry the offending field path)


def _number(value, field: str, kind=float):
    """The one rule for a config number: finite floats, integers, no booleans."""
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{field}: expected a number, got {value!r}")
        # false for nan and inf, and exact for integers beyond the float range
        if not abs(value) <= sys.float_info.max:
            raise ValueError(f"{field}: expected a finite number, got {value!r}")
        return float(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field}: expected an integer, got {value!r}")
    return value


def _numbers(values, field: str) -> list[float]:
    """A JSON list of numbers; an offending element is named by its index."""
    if not isinstance(values, list):
        raise ValueError(f"{field}: expected list, got {values!r}")
    return [_number(v, f"{field}[{i}]") for i, v in enumerate(values)]


def _get(cfg: dict, key: str, path: str, kind=None, required=True, default=None):
    if key not in cfg:
        if required:
            raise ValueError(f"{path}{key}: missing required field")
        return default
    value = cfg[key]
    if kind in (float, int):
        return _number(value, f"{path}{key}", kind)
    if kind is not None and not isinstance(value, kind):
        raise ValueError(f"{path}{key}: expected {kind.__name__}, got {value!r}")
    return value


def _parse_species(cfg: dict, path: str = "") -> ParticleSpecies:
    spec = _get(cfg, "species", path, required=False, default="electron")
    if isinstance(spec, str):
        if spec != "electron":
            raise ValueError(f"{path}species: unknown species name {spec!r}")
        return ELECTRON
    if isinstance(spec, dict):
        return ParticleSpecies(mass=_get(spec, "mass_kg", f"{path}species.", float))
    raise ValueError(f"{path}species: expected a name or {{'mass_kg': ...}}")


def _parse_geometry(cfg: dict, path: str = "geometry.") -> SlitGeometry:
    g = _get(cfg, "geometry", "", dict)
    return SlitGeometry(
        source_y=_get(g, "source_y_m", path, float),
        slit1_y=_get(g, "slit1_y_m", path, float),
        slit2_y=_get(g, "slit2_y_m", path, float),
        slit1_width=_get(g, "slit1_width_m", path, float),
        slit2_width=_get(g, "slit2_width_m", path, float),
        dist_source_slits=_get(g, "dist_source_slits_m", path, float),
        dist_slits_screen=_get(g, "dist_slits_screen_m", path, float),
    )


def _parse_timing(cfg: dict) -> Timing:
    t = _get(cfg, "timing", "", dict)
    convention = TimingConvention(_get(t, "convention", "timing.", str))
    if convention is TimingConvention.EQUAL_TOTAL_TIME:
        return Timing(convention, _get(t, "duration_s", "timing.", float))
    return Timing(convention, _get(t, "speed_m_per_s", "timing.", float))


def _within_reach(y: float, reach: float, field: str) -> float:
    if abs(y) > reach:
        raise ValueError(
            f"{field}: {y!r} m lies farther from the axis than {reach!r} m, "
            f"{_SCREEN_REACH:g} times the largest geometry length"
        )
    return y


def _parse_screen(cfg: dict, reach: float = math.inf) -> np.ndarray:
    """Screen points, each no farther than ``reach`` from the axis."""
    s = _get(cfg, "screen", "", dict)
    if "points_y_m" in s:
        pts = _numbers(s["points_y_m"], "screen.points_y_m")
        if not pts:
            raise ValueError("screen.points_y_m: must be non-empty")
        for i, y in enumerate(pts):
            _within_reach(y, reach, f"screen.points_y_m[{i}]")
        return np.asarray(pts)
    count = _get(s, "count", "screen.", int)
    if count < 2:
        raise ValueError(f"screen.count: need at least 2 grid points, got {count}")
    lo = _within_reach(_get(s, "min_y_m", "screen.", float), reach, "screen.min_y_m")
    hi = _within_reach(_get(s, "max_y_m", "screen.", float), reach, "screen.max_y_m")
    if not hi > lo:
        raise ValueError("screen.max_y_m: must exceed screen.min_y_m")
    return np.linspace(lo, hi, count)


def _route_fields(cfg: dict, path: str, default_domain: str) -> tuple[str, float]:
    """``domain`` and ``phase_step_cap_rad``: validated and echoed, they steer nothing.

    Every window takes the one route of ``timesum``; older configs that name
    a route and a phase cap still run and reproduce their echo.
    """
    domain = _get(cfg, "domain", path, str, required=False, default=default_domain)
    if domain not in DOMAINS:
        raise ValueError(f"{path}domain: expected one of {list(DOMAINS)}, got {domain!r}")
    cap = _get(cfg, "phase_step_cap_rad", path, float, required=False, default=math.pi / 4.0)
    if not 0.0 < cap <= math.pi / 2.0:
        raise ValueError(f"{path}phase_step_cap_rad: must lie in (0, pi/2], got {cap!r}")
    return domain, cap


def _parse_timesum(cfg: dict, required: bool) -> tuple[TimeSumConfig | None, float | None]:
    """The time-sum config and the phase cap it echoes, or (None, None)."""
    ts = _get(cfg, "timesum", "", dict, required=required, default=None)
    if ts is None:
        return None, None
    domain, cap = _route_fields(ts, "timesum.", "t_domain")
    config = TimeSumConfig(
        window=_get(ts, "window_s", "timesum.", float),
        max_nodes=_get(ts, "max_nodes", "timesum.", int, required=False, default=2_000_000),
        domain=domain,
    )
    return config, cap


def _parse_methods(cfg: dict) -> list[Method]:
    raw = _get(cfg, "methods", "", list)
    if not raw:
        raise ValueError("methods: must request at least one method")
    try:
        return [Method(name) for name in raw]
    except ValueError as exc:
        raise ValueError(f"methods: {exc}") from None


def _parse_sweep_values(cfg: dict, key: str, path: str = "") -> list[float]:
    """A scalar, an explicit list, or {'linspace': [start, stop, count]}."""
    value = _get(cfg, key, path)
    field = f"{path}{key}"
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [_number(value, field)]
    if isinstance(value, list):
        if not value:
            raise ValueError(f"{field}: must be non-empty")
        return _numbers(value, field)
    if isinstance(value, dict) and "linspace" in value:
        spec = value["linspace"]
        field += ".linspace"
        if not (isinstance(spec, list) and len(spec) == 3):
            raise ValueError(f"{field}: expected [start, stop, count], got {spec!r}")
        start, stop = _numbers(spec[:2], field)
        count = _number(spec[2], f"{field}[2]", int)
        if count < 1:
            raise ValueError(f"{field}[2]: need at least 1 point, got {count}")
        # Python floats, so that every record serializes as plain JSON
        return np.linspace(start, stop, count).tolist()
    raise ValueError(f"{field}: expected a number, list, or {{'linspace': ...}}")


# ---------------------------------------------------------------------------
# runs


def _envelope(config_echo: dict, results: dict, provenance_extra: dict) -> dict:
    return {
        "config": config_echo,
        "results": results,
        "provenance": {
            "software": "matterslit",
            "version": __version__,
            "constants": dict(_CONSTANTS_BLOCK),
            **provenance_extra,
        },
    }


def run_pattern(config: dict) -> dict:
    """Screen patterns for every requested method."""
    species = _parse_species(config)
    geometry = _parse_geometry(config)
    timing = _parse_timing(config)
    methods = _parse_methods(config)
    reach = _SCREEN_REACH * max(abs(v) for v in dataclasses.astuple(geometry))
    screen = _parse_screen(config, reach)
    samples = _get(config, "samples_per_slit", "", int, required=False, default=32)
    needs_ts = Method.TIME_SUMMED in methods
    ts_config, cap = _parse_timesum(config, required=needs_ts)

    patterns = {}
    for method in methods:
        result = pattern(
            geometry, timing, screen, method, samples, species,
            timesum_config=ts_config if method is Method.TIME_SUMMED else None,
        )
        patterns[method.value] = list(result.probability)

    provenance: dict = {"samples_per_slit": samples}
    if needs_ts:
        # representative cost of one windowed integral (center point, slit-1 center)
        l1, l2 = leg_lengths(geometry, geometry.slit1_y, float(screen[len(screen) // 2]))
        probe = TwoLegPath(l1, l2, timing.duration(geometry))
        _, info = evaluate_window(probe, ts_config, species)
        provenance["timesum"] = {
            "window_s": ts_config.window,
            "max_nodes": ts_config.max_nodes,
            "phase_step_cap_rad": cap,
            "nodes_per_integral_estimate": info.nodes,
            "error_estimate_per_integral": info.error_estimate,
            "integral_count": int(len(screen)) * 2 * samples,
        }
    return _envelope(
        config,
        {"screen_y_m": list(screen), "patterns": patterns},
        provenance,
    )


def run_converge(config: dict) -> dict:
    """Windowed time-sum amplitudes for an increasing list of windows."""
    species = _parse_species(config)
    p = _get(config, "path", "", dict)
    path = TwoLegPath(
        l1=_get(p, "leg1_m", "path.", float),
        l2=_get(p, "leg2_m", "path.", float),
        tau=_get(p, "duration_s", "path.", float),
    )
    windows = _numbers(_get(config, "windows_s", ""), "windows_s")
    if not windows or any(b <= a for a, b in zip(windows, windows[1:])):
        raise ValueError("windows_s: must be a non-empty strictly increasing list")
    domain, _ = _route_fields(config, "", "u_domain")
    max_nodes = _get(config, "max_nodes", "", int, required=False, default=30_000_000)

    prefactor = time_sum_prefactor(species)
    rows = []
    node_counts = []
    error_estimates = []
    for w in windows:
        ts = TimeSumConfig(window=w, max_nodes=max_nodes, domain=domain)
        amp, info = evaluate_window(path, ts, species)
        z = amp.as_complex()
        zn = z / prefactor
        rows.append(
            {
                "window_s": w,
                "re": z.real,
                "im": z.imag,
                "magnitude": abs(z),
                "argument_rad": math.atan2(z.imag, z.real),
                "re_over_prefactor": zn.real,
                "im_over_prefactor": zn.imag,
                "magnitude_over_prefactor": abs(zn),
                "argument_over_prefactor_rad": math.atan2(zn.imag, zn.real),
            }
        )
        node_counts.append(info.nodes)
        error_estimates.append(info.error_estimate)
    return _envelope(
        config,
        {"series": rows},
        {"node_counts": node_counts, "error_estimates": error_estimates},
    )


def run_phasediff(config: dict) -> dict:
    """Near-field phase records over a (d, L, duration) grid."""
    species = _parse_species(config)
    block = config.get("phasediff", config)
    path = "phasediff." if "phasediff" in config else ""
    ds = _parse_sweep_values(block, "slit_separation_m", path)
    lengths = _parse_sweep_values(block, "length_m", path)
    durations = _parse_sweep_values(block, "duration_s", path)
    rows = []
    for d in ds:
        for length in lengths:
            for duration in durations:
                report = discrepancy_report(d, length, duration, species)
                rows.append(
                    {
                        "slit_separation_m": d,
                        "length_m": length,
                        "duration_s": duration,
                        "pi_value_rad": report.pi_value.raw,
                        "intuitive_exact_rad": report.intuitive_exact.raw,
                        "intuitive_expanded_rad": report.intuitive_expanded.raw,
                        "difference_raw_rad": report.difference.raw,
                        "difference_principal_rad": report.difference.principal,
                        "significant": report.significant,
                    }
                )
    return _envelope(config, {"records": rows}, {})


def run_packet(config: dict) -> dict:
    """Wave-packet snapshots: rows of (x, t, re, im, envelope)."""
    species = _parse_species(config)
    params = WavePacketParams(
        k0=_get(config, "k0_rad_per_m", "", float),
        delta_k=_get(config, "delta_k_rad_per_m", "", float),
        species=species,
    )
    x_lo = _get(config, "x_min_m", "", float)
    x_hi = _get(config, "x_max_m", "", float)
    count = _get(config, "x_count", "", int)
    if count < 2:
        raise ValueError(f"x_count: need at least 2 grid points, got {count}")
    times = _numbers(_get(config, "times_s", ""), "times_s")
    if not times:
        raise ValueError("times_s: must be non-empty")
    xs = np.linspace(x_lo, x_hi, count)
    rows = []
    for t in times:
        psi = packet_amplitude(params, xs, t)
        env = np.abs(psi)
        for x, z, e in zip(xs, psi, env):
            rows.append(
                {"x_m": float(x), "t_s": t, "re": z.real, "im": z.imag, "envelope": float(e)}
            )
    return _envelope(
        config,
        {"rows": rows},
        {"group_velocity_m_per_s": HBAR * params.k0 / species.mass},
    )


def run_faddeeva(z: complex) -> complex:
    """Evaluate w(z); the CLI prints it at full precision."""
    return faddeeva_w(z)


# ---------------------------------------------------------------------------
# serialization

_CSV_COLUMNS = {
    "pattern": ["screen_y_m", "p_intuitive", "p_stationary", "p_timesum"],
    "converge": [
        "window_s", "re", "im", "magnitude", "argument_rad",
        "re_over_prefactor", "im_over_prefactor",
        "magnitude_over_prefactor", "argument_over_prefactor_rad",
    ],
    "phasediff": [
        "slit_separation_m", "length_m", "duration_s",
        "pi_value_rad", "intuitive_exact_rad", "intuitive_expanded_rad",
        "difference_raw_rad", "difference_principal_rad", "significant",
    ],
    "packet": ["x_m", "t_s", "re", "im", "envelope"],
}

_PATTERN_CSV_KEYS = {
    "p_intuitive": "intuitive",
    "p_stationary": "stationary_phase",
    "p_timesum": "time_summed",
}


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NonFiniteResultError(f"a result is {value!r}; nothing was written")
        return f"{value:.17g}"
    return str(value)


def _csv_rows(kind: str, envelope: dict):
    results = envelope["results"]
    if kind == "pattern":
        present = [
            c for c in _CSV_COLUMNS["pattern"]
            if c == "screen_y_m" or _PATTERN_CSV_KEYS[c] in results["patterns"]
        ]
        yield present
        for i, y in enumerate(results["screen_y_m"]):
            row = [y]
            for c in present[1:]:
                row.append(results["patterns"][_PATTERN_CSV_KEYS[c]][i])
            yield row
        return
    key = {"converge": "series", "phasediff": "records", "packet": "rows"}[kind]
    columns = _CSV_COLUMNS[kind]
    yield columns
    for record in results[key]:
        yield [record[c] for c in columns]


def _write_output(kind: str, envelope: dict, fmt: str, path: str | None) -> None:
    if fmt == "json":
        try:
            text = json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as exc:
            raise NonFiniteResultError(f"{exc}; nothing was written") from None
    else:
        lines = [",".join(_format_cell(c) for c in row) for row in _csv_rows(kind, envelope)]
        text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _load_config(args, needs_config: bool = True) -> dict:
    if args.preset is not None and args.config is not None:
        raise ValueError("give either --preset or --config, not both")
    if args.preset is not None:
        if args.preset not in PRESETS:
            raise ValueError(
                f"unknown preset {args.preset!r}; available: {sorted(PRESETS)}"
            )
        return PRESETS[args.preset]()
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {args.config}: invalid JSON ({exc})") from None
        if not isinstance(loaded, dict):
            raise ValueError(f"config {args.config}: expected a JSON object")
        return loaded
    if needs_config:
        raise ValueError("one of --preset or --config is required")
    return {}


def _add_io_flags(sub) -> None:
    sub.add_argument("--config", help="path to a JSON config document")
    sub.add_argument("--preset", help="name of a built-in preset (fig4, fig6)")
    sub.add_argument("--output", help="output path (default: stdout)")
    sub.add_argument("--format", choices=["csv", "json"], default=None)


def _resolve_io(args, config: dict) -> tuple[str, str | None]:
    out = config.get("output", {}) if isinstance(config.get("output"), dict) else {}
    fmt = args.format or out.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ValueError(f"output.format: expected csv or json, got {fmt!r}")
    path = args.output if args.output is not None else out.get("path")
    if path is not None and not isinstance(path, str):
        raise ValueError(f"output.path: expected a string, got {path!r}")
    return fmt, path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="matterslit",
        description="Matter-wave double-slit interference by three methods.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in ("pattern", "converge", "phasediff", "packet"):
        _add_io_flags(subparsers.add_parser(name))
    fadd = subparsers.add_parser("faddeeva")
    fadd.add_argument("re", type=float)
    fadd.add_argument("im", type=float)

    args = parser.parse_args(argv)
    try:
        if args.command == "faddeeva":
            w = run_faddeeva(complex(args.re, args.im))
            print(f"{w.real:.17g}{w.imag:+.17g}i")
            return 0
        config = _load_config(args)
        runner = {
            "pattern": run_pattern,
            "converge": run_converge,
            "phasediff": run_phasediff,
            "packet": run_packet,
        }[args.command]
        envelope = runner(config)
        fmt, path = _resolve_io(args, config)
        _write_output(args.command, envelope, fmt, path)
        return 0
    except NodeBudgetError as exc:
        print(f"matterslit: convergence failure: {exc}", file=sys.stderr)
        return 3
    except (OverflowError, NonFiniteResultError) as exc:
        print(f"matterslit: numeric range error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy refuses an oversized array before it allocates any of it
        print(f"matterslit: out of memory: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"matterslit: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"matterslit: I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
