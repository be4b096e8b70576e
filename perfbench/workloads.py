"""The three workloads: seeded inputs, the timed call into matterslit, the checks.

Each workload makes its items one at a time from a ``random.Random``.
``run`` is the timed part and goes through ``matterslit.cli.main`` in
process, with its config written beforehand by ``prepare``; ``check`` runs
after the clock has stopped and returns a list of failure messages, empty
when every output agrees with ``oracles``.  Items come in rounds of
``round_size`` whose inputs are stratified, so every round costs about the
same whatever the seed.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import random
from pathlib import Path

from matterslit import cli, faddeeva
from matterslit.kinematics import ELECTRON

import oracles

# fig6 near-field layout: 273 nm separation, 63 nm widths, 3.37 um arms,
# 1e7 m/s over the straight path, source in line with slit 1
_SEPARATION = 273e-9
_ARM = 3.37e-6
_DURATION = 2.0 * _ARM / 1.0e7
_INLINE_Y = 0.5 * _SEPARATION
_FRINGE = oracles.PLANCK_H / (oracles.ELECTRON_MASS * 1.0e7) * _ARM / _SEPARATION
_FIG6_WINDOW = 6.88e-14
_GEOMETRY = {
    "source_y_m": _INLINE_Y,
    "slit1_y_m": _INLINE_Y,
    "slit2_y_m": -_INLINE_Y,
    "slit1_width_m": 63e-9,
    "slit2_width_m": 63e-9,
    "dist_source_slits_m": _ARM,
    "dist_slits_screen_m": _ARM,
}
_SCREEN_POINTS = 64
_METHODS = ["intuitive", "stationary_phase", "time_summed"]

# fig4 single-slit study: its window fractions, legs and duration
_FIG4_FRACTIONS = [
    0.02, 0.05, 0.08, 0.12, 0.16, 0.20, 0.25, 0.30,
    0.36, 0.42, 0.50, 0.58, 0.66, 0.75, 0.85, 1.0,
]
_FIG4_LEG = 3.37e-6
_FIG4_DURATION = 6.72e-13
_CHEAP_WINDOWS = 4  # the sampled partial window is one of the first four

_GRID_SIDE = 20  # phasediff grid of 20 x 20 x 20 records
_PHI0_POINTS = 1024
_PHI0_MP_SAMPLES = 8
_PHASE_MP_SAMPLES = 32
_PHASEDIFF_COLUMNS = [
    "slit_separation_m", "length_m", "duration_s",
    "pi_value_rad", "intuitive_exact_rad", "intuitive_expanded_rad",
    "difference_raw_rad", "difference_principal_rad", "significant",
]


def _stratum(rng: random.Random, k: int, n: int, lo: float, hi: float) -> float:
    """A uniform draw from the k-th of n equal slices of [lo, hi)."""
    width = (hi - lo) / n
    return lo + width * (k + rng.random())


def _close(a: float, b: float, rel: float, floor: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class _CliWorkload:
    def run(self, item: dict, argvs: list[list[str]]) -> dict:
        return {"codes": [cli.main(argv) for argv in argvs]}


class NearfieldPattern(_CliWorkload):
    """``pattern`` by all three methods on a 64-point segment of the fig6 screen."""

    name = "nearfield_pattern"
    round_size = 4  # one item in each quarter of the window range

    def make_item(self, rng: random.Random, k: int) -> dict:
        center = _INLINE_Y + rng.uniform(-2.5, 2.5) * _FRINGE
        span = rng.uniform(1.0, 1.5) * _FRINGE
        window = _FIG6_WINDOW * _stratum(rng, k % self.round_size, self.round_size, 0.9, 1.1)
        config = {
            "species": "electron",
            "geometry": dict(_GEOMETRY),
            "timing": {"convention": "equal_total_time", "duration_s": _DURATION},
            "methods": list(_METHODS),
            "screen": {
                "min_y_m": center - 0.5 * span,
                "max_y_m": center + 0.5 * span,
                "count": _SCREEN_POINTS,
            },
            "samples_per_slit": 1,
            "timesum": {
                "window_s": window,
                "max_nodes": 2_000_000,
                "domain": "t_domain",
                "phase_step_cap_rad": math.pi / 4.0,
            },
        }
        return {"config": config, "sample_index": rng.randrange(_SCREEN_POINTS)}

    def prepare(self, item: dict, out: Path) -> list[list[str]]:
        _write_json(out / "pattern_config.json", item["config"])
        return [[
            "pattern", "--config", str(out / "pattern_config.json"),
            "--output", str(out / "pattern.json"), "--format", "json",
        ]]

    def check(self, item: dict, out: Path, result: dict, record) -> list[str]:
        envelope = _read_json(out / "pattern.json")
        config = item["config"]
        fails = []
        if envelope["config"] != config:
            fails.append("config echo differs from the input config")
        results = envelope["results"]
        ys = results["screen_y_m"]
        lo, hi = config["screen"]["min_y_m"], config["screen"]["max_y_m"]
        step = (hi - lo) / (_SCREEN_POINTS - 1)
        if len(ys) != _SCREEN_POINTS or any(
            abs(y - (lo + k * step)) > 1e-9 * step for k, y in enumerate(ys)
        ):
            fails.append("screen points are not the requested grid")
            return fails
        patterns = results["patterns"]
        for method in _METHODS:
            p = patterns[method]
            if len(p) != _SCREEN_POINTS or not all(
                math.isfinite(v) and 0.0 <= v <= 1.0 for v in p
            ) or max(p) != 1.0:
                fails.append(f"{method}: not a unit-maximum pattern in [0, 1]")
        if fails:
            return fails

        geometry, tau = config["geometry"], config["timing"]["duration_s"]
        for method, expected in (
            ("intuitive", oracles.intuitive_pattern(geometry, tau, ys)),
            ("stationary_phase", oracles.stationary_pattern(geometry, tau, ys)),
        ):
            gap = max(abs(a - b) for a, b in zip(patterns[method], expected))
            if gap > 1e-8:
                fails.append(f"{method}: differs from the closed form by {gap:.3e}")

        p_ts = patterns["time_summed"]
        gap = max(abs(a - b) for a, b in zip(p_ts, patterns["stationary_phase"]))
        if gap > 0.02:
            fails.append(f"time_summed: {gap:.4f} of peak from the stationary-phase curve")

        # the sampled point and the peak, by the independent quadrature
        window = config["timesum"]["window_s"]
        i, j = item["sample_index"], p_ts.index(1.0)

        def intensity(y):
            amp = sum(
                oracles.window_integral(l1, l2, tau, window)
                for l1, l2 in oracles.path_lengths(geometry, y)
            )
            return abs(amp) ** 2

        expected = intensity(ys[i]) / intensity(ys[j])
        if abs(p_ts[i] - expected) > 1e-6:
            fails.append(
                f"time_summed at point {i}: {p_ts[i]!r} vs quadrature {expected!r}"
            )
        return fails


class SlitConvergence(_CliWorkload):
    """``converge`` over the fig4 window fractions, up to the full window."""

    name = "slit_convergence"
    round_size = 4  # one item in each quarter of the phi0 range

    def make_item(self, rng: random.Random, k: int) -> dict:
        # phi0 ~ L^2 / tau moves by the stratified factor; tau by its own jitter
        scale = _stratum(rng, k % self.round_size, self.round_size, 0.94, 1.06)
        tau = _FIG4_DURATION * rng.uniform(0.99, 1.01)
        leg = _FIG4_LEG * math.sqrt(scale * tau / _FIG4_DURATION)
        config = {
            "species": "electron",
            "path": {"leg1_m": leg, "leg2_m": leg, "duration_s": tau},
            "windows_s": [f * tau for f in _FIG4_FRACTIONS[:-1]] + [tau],
            "domain": "u_domain",
            "max_nodes": 30_000_000,
            "phase_step_cap_rad": math.pi / 4.0,
        }
        return {"config": config, "sample_window": rng.randrange(_CHEAP_WINDOWS)}

    def prepare(self, item: dict, out: Path) -> list[list[str]]:
        _write_json(out / "converge_config.json", item["config"])
        return [[
            "converge", "--config", str(out / "converge_config.json"),
            "--output", str(out / "converge.json"), "--format", "json",
        ]]

    def check(self, item: dict, out: Path, result: dict, record) -> list[str]:
        envelope = _read_json(out / "converge.json")
        config = item["config"]
        fails = []
        if envelope["config"] != config:
            fails.append("config echo differs from the input config")
        series = envelope["results"]["series"]
        errors = envelope["provenance"]["error_estimates"]
        nodes = envelope["provenance"]["node_counts"]
        windows = config["windows_s"]
        if len(series) != len(windows) or len(errors) != len(windows) or len(nodes) != len(windows):
            return fails + ["series, error estimates or node counts have the wrong length"]
        pref = oracles.prefactor()
        values = []
        for row, window, node_count in zip(series, windows, nodes):
            z = complex(row["re"], row["im"])
            zn = z / pref
            ok = (
                row["window_s"] == window
                and isinstance(node_count, int) and node_count > 0
                and all(math.isfinite(v) for v in row.values())
                and _close(row["magnitude"], abs(z), 1e-14)
                and _close(row["re_over_prefactor"], zn.real, 1e-12, 1e-12 * abs(zn))
                and _close(row["im_over_prefactor"], zn.imag, 1e-12, 1e-12 * abs(zn))
            )
            if not ok:
                fails.append(f"window {window!r}: inconsistent or non-finite row")
            values.append(z)
        if fails:
            return fails

        leg, tau = config["path"]["leg1_m"], config["path"]["duration_s"]
        exact = oracles.full_timesum(oracles.symmetric_phi0(leg, tau))
        miss = abs(values[-1] - exact)
        record("timesum.full_rel_err", miss / abs(exact))
        if miss > errors[-1]:
            fails.append(
                f"full window: error {miss:.3e} exceeds the reported bound {errors[-1]:.3e}"
            )

        k = item["sample_window"]
        reference = pref * oracles.window_integral(leg, leg, tau, windows[k])
        miss = abs(values[k] - reference)
        if miss > errors[k]:
            fails.append(
                f"window {k}: error {miss:.3e} exceeds the reported bound {errors[k]:.3e}"
            )
        return fails


class ClosedFormRecords:
    """``phasediff`` written as CSV and as JSON, plus a closed-form time-sum sweep."""

    name = "closed_form_records"
    round_size = 1

    def make_item(self, rng: random.Random, k: int) -> dict:
        def axis(center, decades):
            return [center * 10.0 ** rng.uniform(-decades, decades) for _ in range(_GRID_SIDE)]

        # log-spaced phi0 from ~0.1 to ~1e4: |z| = sqrt(phi0) crosses 3 and 8,
        # so w(z) runs in all three of its regions
        lo, hi = rng.uniform(-1.0, -0.7), rng.uniform(3.7, 4.0)
        phi0 = [10.0 ** (lo + (hi - lo) * n / (_PHI0_POINTS - 1)) for n in range(_PHI0_POINTS)]
        return {
            "config": {
                "species": "electron",
                "phasediff": {
                    "slit_separation_m": axis(_SEPARATION, 0.3),
                    "length_m": axis(_ARM, 0.5),
                    "duration_s": axis(_DURATION, 0.3),
                },
            },
            "phi0": phi0,
            "mp_phi0": rng.sample(range(_PHI0_POINTS), _PHI0_MP_SAMPLES),
            "mp_records": rng.sample(range(_GRID_SIDE**3), _PHASE_MP_SAMPLES),
        }

    def prepare(self, item: dict, out: Path) -> list[list[str]]:
        _write_json(out / "phasediff_config.json", item["config"])
        base = ["phasediff", "--config", str(out / "phasediff_config.json")]
        return [
            base + ["--output", str(out / "phasediff.csv"), "--format", "csv"],
            base + ["--output", str(out / "phasediff.json"), "--format", "json"],
        ]

    def run(self, item: dict, argvs: list[list[str]]) -> dict:
        # the closed forms have no subcommand, so the sweep calls the library
        codes = [cli.main(argv) for argv in argvs]
        closed = [faddeeva.timesum_closed_form(p, ELECTRON).as_complex() for p in item["phi0"]]
        asymptotic = []
        for n, p in enumerate(item["phi0"]):
            result = faddeeva.timesum_asymptotic(p, 1 + n % 4, ELECTRON)
            asymptotic.append((result.amplitude.as_complex(), result.error_estimate))
        return {"codes": codes, "closed": closed, "asymptotic": asymptotic}

    def check(self, item: dict, out: Path, result: dict, record) -> list[str]:
        return self._check_records(item, out) + self._check_sweep(item, result)

    def _check_records(self, item: dict, out: Path) -> list[str]:
        envelope = _read_json(out / "phasediff.json")
        grid = item["config"]["phasediff"]
        fails = []
        if envelope["config"] != item["config"]:
            fails.append("config echo differs from the input config")
        records = envelope["results"]["records"]
        with open(out / "phasediff.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != _PHASEDIFF_COLUMNS or len(rows) != len(records) + 1:
            return fails + ["CSV header or row count differs from the JSON records"]
        if len(records) != _GRID_SIDE**3:
            return fails + [f"{len(records)} records for a {_GRID_SIDE}^3 grid"]
        keys = [
            (d, length, tau)
            for d in grid["slit_separation_m"]
            for length in grid["length_m"]
            for tau in grid["duration_s"]
        ]
        for n, (rec, row, key) in enumerate(zip(records, rows[1:], keys)):
            flag = rec["significant"]
            if row[-1] != json.dumps(flag) or any(
                float(v) != rec[c] for c, v in zip(_PHASEDIFF_COLUMNS[:-1], row)
            ):
                fails.append(f"record {n}: CSV and JSON values differ")
            d, length, tau = key
            if (rec["slit_separation_m"], rec["length_m"], rec["duration_s"]) != key:
                fails.append(f"record {n}: not the grid point {key}")
                continue
            raw, principal = rec["difference_raw_rad"], rec["difference_principal_rad"]
            turns = (raw - principal) / (2.0 * math.pi)
            ok = (
                _close(rec["pi_value_rad"], oracles.pi_phase(d, tau), 1e-13)
                and _close(rec["intuitive_expanded_rad"],
                           oracles.intuitive_phase_expanded(d, length, tau), 1e-12)
                and _close(raw, rec["intuitive_exact_rad"] - rec["pi_value_rad"], 0.0,
                           1e-13 * rec["pi_value_rad"])
                and -math.pi < principal <= math.pi
                and abs(turns - round(turns)) <= 1e-12 * max(1.0, abs(raw))
                and flag is (abs(principal) >= math.pi / 10.0)
            )
            if not ok:
                fails.append(f"record {n}: phase record disagrees with its closed forms")
            if len(fails) > 8:
                break
        for n in item["mp_records"]:
            rec = records[n]
            exact = oracles.intuitive_phase_exact(
                rec["slit_separation_m"], rec["length_m"], rec["duration_s"]
            )
            if not _close(rec["intuitive_exact_rad"], exact, 1e-12):
                fails.append(f"record {n}: intuitive_exact_rad {rec['intuitive_exact_rad']!r} vs {exact!r}")
        return fails

    def _check_sweep(self, item: dict, result: dict) -> list[str]:
        fails = []
        for n, (p, closed, (asym, estimate)) in enumerate(
            zip(item["phi0"], result["closed"], result["asymptotic"])
        ):
            own = oracles.asymptotic_timesum(p, 1 + n % 4)
            if not cmath.isfinite(closed) or abs(asym - own) > 1e-12 * abs(own):
                fails.append(f"phi0={p!r}: closed form not finite or asymptotic value off its series")
            # past |z| = 8 the first omitted term sizes the truncation error
            if p > 64.0 and abs(asym - closed) > 2.0 * estimate:
                fails.append(f"phi0={p!r}: asymptotic error exceeds twice its estimate")
        for n in item["mp_phi0"]:
            exact = oracles.full_timesum(item["phi0"][n])
            closed = result["closed"][n]
            if abs(closed - exact) > 1e-9 * abs(exact):
                fails.append(f"phi0={item['phi0'][n]!r}: closed form {closed!r} vs {exact!r}")
        return fails


WORKLOADS = {w.name: w for w in (NearfieldPattern(), SlitConvergence(), ClosedFormRecords())}
