"""Command-line interface: analyze, figure, suite, and sweep commands.

All outputs are deterministic: identical inputs produce byte-identical
JSON, CSV, and SVG files.  Exit codes: 0 on success, 1 when an analysis
fails or a strict suite finds a counterexample, 2 for configuration or
usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys
from collections import Counter
from collections.abc import Mapping
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .constitutive import (
    ConstitutiveCurve,
    LogisticCurve,
    PiecewiseLinearCurve,
    PolynomialCurve,
    TanhScaledCurve,
    TwoBranchCurve,
)
from .errors import ConfigError, MemElementsError
from .excitation import DEFAULT_GRID_N, Excitation
from .loci import phase_shift, point_at
from .taxonomy import (
    ClassificationReport,
    ElementDescriptor,
    SuiteReport,
    classify,
    theorem_suite,
)
from .tolerances import ANALYTIC_DEFAULTS, NUMERIC_DEFAULTS, ToleranceSet
from .transform import analytic_locus, columns_to_csv, locus_to_csv

SCHEMA_VERSION = "1"
_ALL_FORMATS = ("csv", "json", "svg")
# top-level keys of an analyze config that _classify_args reads
_ANALYSIS_KEYS = ("descriptor", "curve", "excitation", "tolerances", "grid_n", "numeric_chain")


# ----------------------------------------------------------------------
# configuration parsing
# ----------------------------------------------------------------------

def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        # JSON text is UTF-8, so a file that does not decode is not JSON either
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return data


def _require(node: dict, key: str, path: str):
    if key not in node:
        raise ConfigError(f"missing required key {path}.{key}")
    return node[key]


def _known(node: dict, keys, path: str) -> None:
    """Reject a key of node that its reader does not read."""
    for key in node:
        if key not in keys:
            raise ConfigError(f"{path}.{key} is not a known key")


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object")
    return value


def _read(node, path: str, readers: dict, required=()) -> dict:
    """The keys node holds, each read by its reader, in the order of readers.

    node must be an object with the required keys and no key that readers
    does not name; a reader takes the value and its path.
    """
    _known(_object(node, path), readers, path)
    for key in required:
        _require(node, key, path)
    return {key: read(node[key], f"{path}.{key}") for key, read in readers.items() if key in node}


def _construct(cls, path: str, **kwargs):
    """cls(**kwargs), with the error a bad value raises there as a ConfigError at path."""
    try:
        return cls(**kwargs)
    except (MemElementsError, ValueError) as err:  # ToleranceSet raises a ValueError
        raise ConfigError(f"{path}: {err}") from err


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{path} must be finite, got an integer beyond float range") from None
    if not math.isfinite(number):
        raise ConfigError(f"{path} must be finite, got {value!r}")
    return number


def _offset(value, path: str) -> float | None:
    """A drive offset; null stands for the default one, the amplitude."""
    return None if value is None else _number(value, path)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer")
    return value


def _pair(value, path: str, shape: str = "a [lo, hi] pair") -> tuple[float, float]:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(f"{path} must be {shape}")
    return _number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]")


def _coefficients(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{path} must be a non-empty array")
    return tuple(_number(c, f"{path}[{i}]") for i, c in enumerate(value))


def _knots(value, path: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, (list, tuple)) or len(value) < 2:
        raise ConfigError(f"{path} must list at least two [x, y] pairs")
    return tuple(_pair(knot, f"{path}[{i}]", "[x, y]") for i, knot in enumerate(value))


def _axis_values(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path} must be a non-empty array")
    for j, item in enumerate(value):
        # the CSV writes each value as a float, a bool as 0.0 or 1.0
        if not isinstance(item, bool):
            _number(item, f"{path}[{j}]")
    return value


# a sweep axis: the dotted path it sets and the values it takes there
_AXIS_KEYS = {"target": lambda value, path: str(value), "values": _axis_values}


def _family(value, path: str) -> tuple:
    if not isinstance(value, str) or value not in _FAMILIES:
        raise ConfigError(f"{path} {value!r} is not a known curve family")
    return _FAMILIES[value]


# a curve node's keys; range sets the class field operating_range
_CURVE_KEYS = {"params": _object, "family": _family, "range": _pair,
               "max_derivative_order": _integer}


def curve_from_spec(node, path: str = "curve") -> ConstitutiveCurve:
    """Build a curve from its JSON description.

    Shape: {"family": ..., "params": {...}, "range": [lo, hi],
    "max_derivative_order": n}; a param is required where its class field
    has no default.  two_branch nests full sub-specs under params.outgoing
    and params.returning, and its range and order come from the branches,
    so when given they must equal the branches'.  Every curve's spec() is
    such a node.
    """
    spec = _read(node, path, _CURVE_KEYS, required=("family",))
    cls, readers = spec.pop("family")
    params = _read(spec.pop("params", {}), f"{path}.params", readers, required=[
        f.name for f in dataclasses.fields(cls)
        if f.name in readers and f.default is dataclasses.MISSING])
    fields = {"operating_range" if key == "range" else key: value for key, value in spec.items()}
    if cls is not TwoBranchCurve:
        return _construct(cls, path, **params, **fields)
    curve = _construct(cls, path, **params)
    for key, field in zip(spec, fields):
        given, derived = spec[key], getattr(curve, field)
        if given != derived:
            raise ConfigError(f"{path}.{key} {given!r} disagrees with the branches' {derived!r}")
    return curve


# curve family -> its class and a reader for each of its params
_FAMILIES = {
    "polynomial": (PolynomialCurve, {"coefficients": _coefficients}),
    "tanh_scaled": (TanhScaledCurve, {"a": _number, "b": _number}),
    "logistic": (LogisticCurve, {}),
    "piecewise_linear": (PiecewiseLinearCurve, {"knots": _knots}),
    "two_branch": (TwoBranchCurve, {"outgoing": curve_from_spec, "returning": curve_from_spec}),
}


def excitation_from_spec(node, path: str = "excitation") -> Excitation:
    if node is None:
        return Excitation()
    return _construct(Excitation, path, **_read(
        node, path, {"amplitude": _number, "omega": _number, "offset": _offset}))


def descriptor_from_spec(node, path: str = "descriptor") -> ElementDescriptor:
    return _construct(ElementDescriptor, path, **_read(
        node, path, {"alpha": _integer, "beta": _integer}, required=("alpha", "beta")))


def tolerances_from_spec(node, numeric: bool, path: str = "tolerances") -> ToleranceSet:
    base = NUMERIC_DEFAULTS if numeric else ANALYTIC_DEFAULTS
    if node is None:
        return base
    knobs = {f.name: _number for f in dataclasses.fields(ToleranceSet)}
    return _construct(functools.partial(dataclasses.replace, base), path,
                      **_read(node, path, knobs))


def _formats_from(value, path: str) -> tuple[str, ...]:
    if value is None:
        return _ALL_FORMATS
    if isinstance(value, str):
        value = [v.strip() for v in value.split(",") if v.strip()]
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{path} must name at least one of {', '.join(_ALL_FORMATS)}")
    out = []
    for fmt in value:
        if fmt not in _ALL_FORMATS:
            raise ConfigError(
                f"{path}: unknown format {fmt!r} (choose from {', '.join(_ALL_FORMATS)})"
            )
        if fmt not in out:
            out.append(fmt)
    return tuple(out)


def _classify_args(cfg: dict) -> tuple:
    """classify's positional arguments from the analysis sections of a config.

    The sections are read in the order descriptor, curve, excitation,
    tolerances, grid_n, numeric_chain, so the first bad one is reported.
    """
    descriptor = descriptor_from_spec(_require(cfg, "descriptor", "config"))
    curve = curve_from_spec(_require(cfg, "curve", "config"))
    exc = excitation_from_spec(cfg.get("excitation"))
    numeric = cfg.get("numeric_chain", False)
    if not isinstance(numeric, bool):
        raise ConfigError("config.numeric_chain must be a boolean")
    tol = tolerances_from_spec(cfg.get("tolerances"), numeric)
    grid_n = _integer(cfg.get("grid_n", DEFAULT_GRID_N), "config.grid_n")
    return descriptor, curve, exc, tol, grid_n, numeric


# ----------------------------------------------------------------------
# JSON serialization
# ----------------------------------------------------------------------

def _plain(obj):
    """obj as JSON-ready data: dataclasses by their compared fields, enums by value."""
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (tuple, list)):
        return [_plain(v) for v in obj]
    if isinstance(obj, Mapping):
        return {k: _plain(v) for k, v in obj.items()}
    return {f.name: _plain(getattr(obj, f.name))
            for f in dataclasses.fields(obj) if f.compare}


def report_to_dict(rpt: ClassificationReport) -> dict:
    """JSON-ready dictionary for a classification report: its fields plus a header."""
    out = _plain(rpt)
    out.update(schema_version=SCHEMA_VERSION, package_version=__version__,
               kind="classification_report")
    out["excitation"]["period"] = rpt.excitation.period
    out["ideality"]["ideal"] = rpt.ideality.ideal
    return out


def suite_to_dict(rep: SuiteReport) -> dict:
    """JSON-ready dictionary for a theorem-suite report: its fields plus a header."""
    out = _plain(rep)
    out.update(schema_version=SCHEMA_VERSION, package_version=__version__, kind="suite_report")
    return out


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _write(output_dir, files: dict[str, str]) -> str:
    """Write files into output_dir, creating it; the 'wrote:' line naming them.

    A directory that cannot be made, such as a path that is or lies under
    a file, is a ConfigError naming it.
    """
    outdir = Path(output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot make output directory {outdir}: {err}") from err
    for name in sorted(files):
        (outdir / name).write_text(files[name], encoding="utf-8")
    return "wrote: " + ", ".join(str(outdir / name) for name in sorted(files))


# ----------------------------------------------------------------------
# SVG rendering
# ----------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _esc(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )


class Panel:
    """One axes rectangle holding polyline series and labelled markers."""

    def __init__(self, title: str, xlabel: str, ylabel: str,
                 include_origin: bool = True):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.include_origin = include_origin
        self.series: list[tuple[str, np.ndarray, np.ndarray]] = []
        self.markers: list[tuple[float, float, str]] = []

    def add_series(self, label: str, x, y) -> None:
        self.series.append((label, np.asarray(x, float), np.asarray(y, float)))

    def add_marker(self, x: float, y: float, label: str) -> None:
        self.markers.append((float(x), float(y), label))

    def _bounds(self) -> tuple[float, float, float, float]:
        xs = [s[1] for s in self.series] + [np.array([m[0] for m in self.markers])]
        ys = [s[2] for s in self.series] + [np.array([m[1] for m in self.markers])]
        allx = np.concatenate([a for a in xs if a.size])
        ally = np.concatenate([a for a in ys if a.size])
        x0, x1 = float(allx.min()), float(allx.max())
        y0, y1 = float(ally.min()), float(ally.max())
        if self.include_origin:
            x0, x1 = min(x0, 0.0), max(x1, 0.0)
            y0, y1 = min(y0, 0.0), max(y1, 0.0)
        if x1 - x0 < 1e-12:
            x0, x1 = x0 - 1.0, x1 + 1.0
        if y1 - y0 < 1e-12:
            y0, y1 = y0 - 1.0, y1 + 1.0
        padx = 0.06 * (x1 - x0)
        pady = 0.08 * (y1 - y0)
        return x0 - padx, x1 + padx, y0 - pady, y1 + pady


def render_svg(panels: list[Panel], title: str | None = None,
               width: int = 800, height: int = 600) -> str:
    """Self-contained deterministic SVG with the panels side by side."""
    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif">'
    )
    parts.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>')
    top = 8
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" '
            f'font-size="16" fill="#111">{_esc(title)}</text>'
        )
        top = 34

    n = max(1, len(panels))
    panel_w = width / n
    for index, panel in enumerate(panels):
        ox = index * panel_w
        left, right, bottom_m, top_m = 56.0, 14.0, 46.0, 30.0
        plot_x0 = ox + left
        plot_x1 = ox + panel_w - right
        plot_y0 = top + top_m
        plot_y1 = height - bottom_m
        x0, x1, y0, y1 = panel._bounds()

        def sx(v: float) -> float:
            return plot_x0 + (v - x0) / (x1 - x0) * (plot_x1 - plot_x0)

        def sy(v: float) -> float:
            return plot_y1 - (v - y0) / (y1 - y0) * (plot_y1 - plot_y0)

        parts.append(
            f'<rect x="{plot_x0:.1f}" y="{plot_y0:.1f}" '
            f'width="{plot_x1 - plot_x0:.1f}" height="{plot_y1 - plot_y0:.1f}" '
            f'fill="none" stroke="#999" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{(plot_x0 + plot_x1) / 2:.1f}" y="{plot_y0 - 10:.1f}" '
            f'text-anchor="middle" font-size="13" fill="#111">{_esc(panel.title)}</text>'
        )
        # zero axes
        if x0 < 0.0 < x1:
            parts.append(
                f'<line x1="{sx(0):.1f}" y1="{plot_y0:.1f}" x2="{sx(0):.1f}" '
                f'y2="{plot_y1:.1f}" stroke="#ccc" stroke-width="1"/>'
            )
        if y0 < 0.0 < y1:
            parts.append(
                f'<line x1="{plot_x0:.1f}" y1="{sy(0):.1f}" x2="{plot_x1:.1f}" '
                f'y2="{sy(0):.1f}" stroke="#ccc" stroke-width="1"/>'
            )
        # ticks
        for tx in np.linspace(x0, x1, 5):
            parts.append(
                f'<line x1="{sx(tx):.1f}" y1="{plot_y1:.1f}" x2="{sx(tx):.1f}" '
                f'y2="{plot_y1 + 4:.1f}" stroke="#999" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{sx(tx):.1f}" y="{plot_y1 + 16:.1f}" text-anchor="middle" '
                f'font-size="10" fill="#444">{tx:.3g}</text>'
            )
        for ty in np.linspace(y0, y1, 5):
            parts.append(
                f'<line x1="{plot_x0 - 4:.1f}" y1="{sy(ty):.1f}" x2="{plot_x0:.1f}" '
                f'y2="{sy(ty):.1f}" stroke="#999" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{plot_x0 - 7:.1f}" y="{sy(ty) + 3:.1f}" text-anchor="end" '
                f'font-size="10" fill="#444">{ty:.3g}</text>'
            )
        parts.append(
            f'<text x="{(plot_x0 + plot_x1) / 2:.1f}" y="{plot_y1 + 32:.1f}" '
            f'text-anchor="middle" font-size="12" fill="#111">{_esc(panel.xlabel)}</text>'
        )
        parts.append(
            f'<text x="{ox + 14:.1f}" y="{(plot_y0 + plot_y1) / 2:.1f}" '
            f'text-anchor="middle" font-size="12" fill="#111" '
            f'transform="rotate(-90 {ox + 14:.1f} {(plot_y0 + plot_y1) / 2:.1f})">'
            f"{_esc(panel.ylabel)}</text>"
        )
        # series
        for s_index, (label, xs, ys) in enumerate(panel.series):
            color = _PALETTE[s_index % len(_PALETTE)]
            step = max(1, len(xs) // 1024)
            pts = " ".join(
                f"{sx(float(xv)):.2f},{sy(float(yv)):.2f}"
                for xv, yv in zip(xs[::step], ys[::step])
            )
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
            if label:
                ly = plot_y0 + 14 + 13 * s_index
                parts.append(
                    f'<line x1="{plot_x0 + 6:.1f}" y1="{ly - 3:.1f}" '
                    f'x2="{plot_x0 + 22:.1f}" y2="{ly - 3:.1f}" stroke="{color}" '
                    f'stroke-width="1.5"/>'
                )
                parts.append(
                    f'<text x="{plot_x0 + 26:.1f}" y="{ly:.1f}" font-size="10" '
                    f'fill="#333">{_esc(label)}</text>'
                )
        # markers
        for mx, my, label in panel.markers:
            parts.append(
                f'<circle cx="{sx(mx):.2f}" cy="{sy(my):.2f}" r="4" fill="#d62728" '
                f'fill-opacity="0.85" stroke="#7f1d1d" stroke-width="1"/>'
            )
            if label:
                parts.append(
                    f'<text x="{sx(mx) + 6:.1f}" y="{sy(my) - 6:.1f}" font-size="10" '
                    f'fill="#7f1d1d">{_esc(label)}</text>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------

def _analysis_files(rpt: ClassificationReport, formats: tuple[str, ...]) -> dict[str, str]:
    """File name -> text content for one classification run."""
    files: dict[str, str] = {}
    if "json" in formats:
        files["report.json"] = _dump_json(report_to_dict(rpt))
    if "csv" in formats:
        for locus in rpt.loci:
            files[f"depth{locus.depth}.csv"] = locus_to_csv(locus)
    if "svg" in formats:
        panels = []
        for locus, plane in zip(rpt.loci, rpt.planes):
            panel = Panel(
                title=f"depth {locus.depth}",
                xlabel=plane.axis_labels[0],
                ylabel=plane.axis_labels[1],
            )
            panel.add_series("", locus.u_values, locus.w_values)
            if locus.depth == len(rpt.loci) - 1:
                for p in rpt.witnesses:
                    panel.add_marker(p.u, p.w, f"({p.u:.3g}, {p.w:.3g})")
            panels.append(panel)
        name = rpt.element.name
        files["loci.svg"] = render_svg(
            panels, title=f"{name}: {rpt.verdict.value.replace('_', ' ')}"
        )
    return files


def cmd_analyze(ns: argparse.Namespace) -> int:
    cfg = _load_json(ns.config)
    _known(cfg, _ANALYSIS_KEYS + ("formats",), "config")
    args = _classify_args(cfg)
    formats = _formats_from(
        ns.formats if ns.formats is not None else cfg.get("formats"), "formats"
    )

    rpt = classify(*args)
    wrote = _write(ns.output_dir, _analysis_files(rpt, formats))

    alpha, beta = rpt.descriptor.alpha, rpt.descriptor.beta
    print(f"element: {rpt.element.name} (alpha={alpha}, beta={beta})")
    print(f"verdict: {rpt.verdict.value}")
    if rpt.witnesses:
        p = rpt.witnesses[0]
        print(f"witness: ({p.u:.6g}, {p.w:.6g}) at t = {p.t:.6g}")
    if rpt.candidate_witness_magnitude is not None:
        print(f"candidate witness magnitude: {rpt.candidate_witness_magnitude:.6g}")
    for caveat in rpt.caveats:
        print(f"caveat: {caveat}")
    print(wrote)
    return 0


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------

def _cubic() -> PolynomialCurve:
    return PolynomialCurve(coefficients=(0.0, 1.0, 0.0, 1.0 / 3.0))


def _degenerate() -> PolynomialCurve:
    return PolynomialCurve(coefficients=(0.0, 0.0, 0.5, -1.0 / 6.0))


def _chain_figure(curve: ConstitutiveCurve, cell: tuple[int, int],
                  stem: str, title: str) -> dict[str, str]:
    rpt = classify(cell, curve)
    files = _analysis_files(rpt, ("csv", "svg"))
    out = {f"{stem}.depth{d}.csv": files[f"depth{d}.csv"]
           for d in range(len(rpt.planes))}
    svg = files["loci.svg"]
    # retitle the figure deterministically
    out[f"{stem}.svg"] = svg.replace(
        f"{rpt.element.name}: {rpt.verdict.value.replace('_', ' ')}", title, 1
    )
    return out


def _waveform_figure(curve: ConstitutiveCurve, stem: str, title: str) -> dict[str, str]:
    """Depth-1 ordinate and drive rate over one period: the depth-1 locus's w and u."""
    exc = Excitation()
    locus = analytic_locus(curve, exc, 1)
    t, rate, ordinate = locus.t_values, locus.u_values, locus.w_values
    csv_text = columns_to_csv("t,ordinate,abscissa_rate", t, ordinate, rate)

    # overlay convention: drive rate rescaled to share the ordinate's peak
    scale = float(np.max(ordinate)) / float(np.max(rate))
    ph = phase_shift(curve, exc)
    panel = Panel(title=title, xlabel="t", ylabel="rate", include_origin=False)
    panel.add_series("depth-1 ordinate", t, ordinate)
    panel.add_series(f"drive rate (scaled {scale:.3g}x)", t, rate * scale)
    panel.add_marker(ph.t_peak_ordinate, point_at(locus, ph.t_peak_ordinate)[1],
                     f"peak t = {ph.t_peak_ordinate:.4g}")
    panel.add_marker(ph.t_peak_abscissa, point_at(locus, ph.t_peak_abscissa)[0] * scale,
                     f"peak t = {ph.t_peak_abscissa:.4g}")
    svg = render_svg(
        [panel],
        title=f"{title} (shift = {ph.shift:+.4g}, {ph.classification.value})",
    )
    return {f"{stem}.csv": csv_text, f"{stem}.svg": svg}


def _fig10() -> dict[str, str]:
    curve = _degenerate()
    lo, hi = curve.operating_range
    xs = np.linspace(lo, hi, 1025)
    f = curve.eval(xs)
    df = curve.derivative(xs, 1)
    d2f = curve.derivative(xs, 2)
    csv_text = columns_to_csv("x,f,df,d2f", xs, f, df, d2f)

    panel = Panel(title="degenerate curve and derivatives", xlabel="x", ylabel="value")
    panel.add_series("f", xs, f)
    panel.add_series("f'", xs, df)
    panel.add_series("f''", xs, d2f)
    panel.add_marker(1.0, 0.0, "f'' = 0 at sweep midpoint")
    svg = render_svg([panel], title="degenerate witness: activity test inconclusive")
    return {"fig10.csv": csv_text, "fig10.svg": svg}


# figure id -> function returning its files; each curve is built when its figure is drawn
FIGURES = {
    "fig2": lambda: _chain_figure(
        _cubic(), (-1, -1), "fig2", "first-order memristor: pinched loop"),
    "fig4": lambda: _chain_figure(
        TwoBranchCurve(outgoing=_cubic(),
                       returning=PolynomialCurve(coefficients=(0.0, 4.0 / 3.0, 0.5))),
        (-1, -1), "fig4", "two-branch curve: open hysteresis loop"),
    "fig6": lambda: _waveform_figure(
        _cubic(), "fig6", "cubic curve: ordinate rate lags the drive rate"),
    "fig7": lambda: _chain_figure(
        _cubic(), (-2, -2), "fig7", "second-order memristor: off-origin witness"),
    "fig8": lambda: _waveform_figure(
        TanhScaledCurve(), "fig8", "tanh curve: ordinate rate advances the drive rate"),
    "fig10": _fig10,
}


def cmd_figure(ns: argparse.Namespace) -> int:
    print(_write(ns.output_dir, FIGURES[ns.id]()))
    return 0


# ----------------------------------------------------------------------
# suite
# ----------------------------------------------------------------------

def _default_suite_curves() -> list[ConstitutiveCurve]:
    return [
        _cubic(),
        TanhScaledCurve(),
        _degenerate(),
        PiecewiseLinearCurve(knots=((0.0, 0.0), (1.0, 0.5), (2.0, 2.0))),
    ]


def cmd_suite(ns: argparse.Namespace) -> int:
    if ns.config is None:
        cfg, curves = {}, _default_suite_curves()
    else:
        cfg = _load_json(ns.config)
        _known(cfg, ("curves", "excitation", "tolerances", "grid_n"), "config")
        raw_curves = _require(cfg, "curves", "config")
        if not isinstance(raw_curves, list) or not raw_curves:
            raise ConfigError("config.curves must be a non-empty array")
        curves = [
            curve_from_spec(node, f"config.curves[{i}]")
            for i, node in enumerate(raw_curves)
        ]
    exc = excitation_from_spec(cfg.get("excitation"))
    tol = tolerances_from_spec(cfg.get("tolerances"), numeric=False)
    grid_n = _integer(cfg.get("grid_n", DEFAULT_GRID_N), "config.grid_n")

    rep = theorem_suite(curves, exc, tol, grid_n)
    wrote = _write(ns.output_dir, {"suite_report.json": _dump_json(suite_to_dict(rep))})

    for inst in rep.instances:
        statuses = ", ".join(
            f"{name}={res.status.value}" for name, res in inst.checks.items()
        )
        print(f"[{inst.index}] {inst.label}: {statuses}")
    print(f"all_passed: {rep.all_passed}")
    for line in rep.counterexamples:
        print(f"counterexample: {line}")
    print(wrote)
    if ns.strict and not rep.all_passed:
        return 1
    return 0


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def _set_path(root: dict, dotted: str, value) -> None:
    """Assign into a nested config dict along a dotted path with [index]."""
    node = root
    tokens = dotted.split(".")
    steps: list = []
    for token in tokens:
        base = token
        indices: list[int] = []
        while base.endswith("]"):
            cut = base.rfind("[")
            if cut < 0:
                raise ConfigError(f"bad sweep target segment {token!r}")
            try:
                indices.insert(0, int(base[cut + 1 : -1]))
            except ValueError as err:
                raise ConfigError(f"bad index in sweep target {token!r}") from err
            base = base[:cut]
        if not base:
            raise ConfigError(f"bad sweep target segment {token!r}")
        steps.append((base, indices))

    for i, (base, indices) in enumerate(steps):
        last = i == len(steps) - 1
        if not isinstance(node, dict) or base not in node:
            raise ConfigError(f"sweep target {dotted!r} not found at {base!r}")
        if last and not indices:
            node[base] = value
            return
        node = node[base]
        for j, idx in enumerate(indices):
            if not isinstance(node, list) or not -len(node) <= idx < len(node):
                raise ConfigError(f"sweep target {dotted!r}: bad index {idx}")
            if last and j == len(indices) - 1:
                node[idx] = value
                return
            node = node[idx]


def _or_error(fn, *args):
    """fn(*args), or the MemElementsError other than a ConfigError that it raises."""
    try:
        return fn(*args)
    except ConfigError:
        raise
    except MemElementsError as err:
        return err


def _fill_sweep_row(row: list[str], counts: Counter, outcome) -> None:
    """Append a cell's report columns, or its error, to its row, and count its verdict."""
    if isinstance(outcome, MemElementsError):
        row += [f"error: {outcome}", "", "", "", ""]
        counts["error"] += 1
        return
    witness = max((max(abs(p.u), abs(p.w)) for p in outcome.witnesses), default=0.0)
    cand = outcome.candidate_witness_magnitude
    row += [
        outcome.verdict.value,
        repr(witness) if outcome.witnesses else "",
        repr(cand) if cand is not None else "",
        outcome.degeneration.value,
        outcome.internal_source.value,
    ]
    counts[outcome.verdict.value] += 1


def cmd_sweep(ns: argparse.Namespace) -> int:
    cfg = _load_json(ns.config)
    _known(cfg, _ANALYSIS_KEYS + ("axes",), "config")
    base = {
        "descriptor": _require(cfg, "descriptor", "config"),
        "curve": _require(cfg, "curve", "config"),
        "excitation": cfg.get("excitation"),
        "tolerances": cfg.get("tolerances"),
        "grid_n": cfg.get("grid_n", DEFAULT_GRID_N),
        "numeric_chain": cfg.get("numeric_chain", False),
    }
    axes = _require(cfg, "axes", "config")
    if not isinstance(axes, list) or not 1 <= len(axes) <= 2:
        raise ConfigError("config.axes must list one or two sweep axes")
    axes = [_read(axis, f"config.axes[{i}]", _AXIS_KEYS, required=tuple(_AXIS_KEYS))
            for i, axis in enumerate(axes)]
    targets = [axis["target"] for axis in axes]

    header = targets + [
        "verdict",
        "witness_magnitude",
        "candidate_witness_magnitude",
        "degeneration",
        "internal_source",
    ]
    # every cell's arguments are read before any analysis runs, so a bad
    # cell stops the sweep before the work of the cells ahead of it
    rows: list[list[str]] = []
    counts: Counter = Counter()
    cells: list = []  # classify's arguments for each cell, or the error reading them
    for combo in itertools.product(*(axis["values"] for axis in axes)):
        trial = json.loads(json.dumps(base))
        for target, value in zip(targets, combo):
            _set_path(trial, target, value)
        rows.append([repr(float(v)) for v in combo])
        cells.append(_or_error(_classify_args, trial))
    for row, args in zip(rows, cells):
        _fill_sweep_row(row, counts, args if isinstance(args, MemElementsError)
                        else _or_error(classify, *args))

    csv_text = "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
    wrote = _write(ns.output_dir, {"sweep.csv": csv_text})
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    print(f"{len(rows)} runs ({summary})")
    print(wrote)
    return 0


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process and reused by every run.

    Reuse changes no output: argparse reads sys.stdout, sys.stderr and the
    terminal width when it writes, not when it is built.  Each subcommand's
    cmd_* function is bound when the parser is built, so patching a cmd_*
    attribute of this module afterwards does not reach run.
    """
    parser = argparse.ArgumentParser(
        prog="memelements",
        description=(
            "Model memory circuit elements from constitutive curves: project "
            "differential locus chains, test hysteresis geometry, and "
            "classify local passivity or activity."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="classify one element described by a JSON config"
    )
    analyze.add_argument("--config", required=True, help="path to the JSON config")
    analyze.add_argument("--output-dir", default=".", help="directory for outputs")
    analyze.add_argument(
        "--formats", default=None,
        help="comma-separated subset of csv,json,svg (default: all)",
    )
    analyze.set_defaults(func=cmd_analyze)

    figure = sub.add_parser("figure", help="reproduce a bundled reference figure")
    figure.add_argument("id", choices=sorted(FIGURES), help="figure identifier")
    figure.add_argument("--output-dir", default=".", help="directory for outputs")
    figure.set_defaults(func=cmd_figure)

    suite = sub.add_parser(
        "suite", help="run the theorem property suite over a curve set"
    )
    suite.add_argument(
        "--config", default=None,
        help="JSON config with a curves array (default: bundled demo set)",
    )
    suite.add_argument("--output-dir", default=".", help="directory for outputs")
    suite.add_argument(
        "--strict", action="store_true",
        help="exit with status 1 when any check fails",
    )
    suite.set_defaults(func=cmd_suite)

    sweep = sub.add_parser(
        "sweep", help="re-run classification over a parameter grid"
    )
    sweep.add_argument("--config", required=True, help="path to the JSON sweep config")
    sweep.add_argument("--output-dir", default=".", help="directory for outputs")
    sweep.set_defaults(func=cmd_sweep)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        return ns.func(ns)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except MemElementsError as err:
        print(f"analysis failed: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
