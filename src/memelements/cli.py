"""Command-line interface: analyze, figure, suite, and sweep commands.

All outputs are deterministic: identical inputs produce byte-identical
JSON, CSV, and SVG files.  Exit codes: 0 on success, 1 when an analysis
fails or a strict suite finds a counterexample, 2 for configuration or
usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
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
from .excitation import DEFAULT_GRID_N, Excitation, excite, grid
from .loci import SpecialPoint, phase_shift
from .taxonomy import (
    ClassificationReport,
    ElementDescriptor,
    SuiteReport,
    classify,
    theorem_suite,
)
from .tolerances import ANALYTIC_DEFAULTS, NUMERIC_DEFAULTS, ToleranceSet
from .transform import chain_ordinate, columns_to_csv, locus_to_csv

SCHEMA_VERSION = "1"
_ALL_FORMATS = ("csv", "json", "svg")


# ----------------------------------------------------------------------
# configuration parsing
# ----------------------------------------------------------------------

def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return data


def _require(node: dict, key: str, path: str):
    if key not in node:
        raise ConfigError(f"missing required key {path}.{key}")
    return node[key]


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


def curve_from_spec(node, path: str = "curve") -> ConstitutiveCurve:
    """Build a curve from its JSON description.

    Shape: {"family": ..., "params": {...}, "range": [lo, hi],
    "max_derivative_order": n}; two_branch nests full sub-specs under
    params.outgoing and params.returning.
    """
    if not isinstance(node, dict):
        raise ConfigError(f"{path} must be an object")
    family = _require(node, "family", path)
    params = node.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{path}.params must be an object")

    if family == "two_branch":
        out = curve_from_spec(_require(params, "outgoing", f"{path}.params"),
                              f"{path}.params.outgoing")
        ret = curve_from_spec(_require(params, "returning", f"{path}.params"),
                              f"{path}.params.returning")
        try:
            return TwoBranchCurve(outgoing=out, returning=ret)
        except MemElementsError as err:
            raise ConfigError(f"{path}: {err}") from err

    kwargs: dict = {}
    if "range" in node:
        rng = node["range"]
        if not (isinstance(rng, (list, tuple)) and len(rng) == 2):
            raise ConfigError(f"{path}.range must be a [lo, hi] pair")
        kwargs["operating_range"] = (
            _number(rng[0], f"{path}.range[0]"),
            _number(rng[1], f"{path}.range[1]"),
        )
    if "max_derivative_order" in node:
        order = node["max_derivative_order"]
        if isinstance(order, bool) or not isinstance(order, int):
            raise ConfigError(f"{path}.max_derivative_order must be an integer")
        kwargs["max_derivative_order"] = order

    try:
        if family == "polynomial":
            coeffs = _require(params, "coefficients", f"{path}.params")
            if not isinstance(coeffs, (list, tuple)) or not coeffs:
                raise ConfigError(
                    f"{path}.params.coefficients must be a non-empty array"
                )
            return PolynomialCurve(
                coefficients=tuple(
                    _number(c, f"{path}.params.coefficients[{i}]")
                    for i, c in enumerate(coeffs)
                ),
                **kwargs,
            )
        if family == "tanh_scaled":
            return TanhScaledCurve(
                a=_number(params.get("a", 1.0), f"{path}.params.a"),
                b=_number(params.get("b", 1.0), f"{path}.params.b"),
                **kwargs,
            )
        if family == "logistic":
            return LogisticCurve(**kwargs)
        if family == "piecewise_linear":
            knots = _require(params, "knots", f"{path}.params")
            if not isinstance(knots, (list, tuple)) or len(knots) < 2:
                raise ConfigError(
                    f"{path}.params.knots must list at least two [x, y] pairs"
                )
            pairs = []
            for i, raw in enumerate(knots):
                if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
                    raise ConfigError(f"{path}.params.knots[{i}] must be [x, y]")
                pairs.append(
                    (
                        _number(raw[0], f"{path}.params.knots[{i}][0]"),
                        _number(raw[1], f"{path}.params.knots[{i}][1]"),
                    )
                )
            return PiecewiseLinearCurve(knots=tuple(pairs), **kwargs)
    except ConfigError:
        raise
    except MemElementsError as err:
        raise ConfigError(f"{path}: {err}") from err
    raise ConfigError(f"{path}.family {family!r} is not a known curve family")


def excitation_from_spec(node, path: str = "excitation") -> Excitation:
    if node is None:
        return Excitation()
    if not isinstance(node, dict):
        raise ConfigError(f"{path} must be an object")
    kwargs: dict = {}
    if "amplitude" in node:
        kwargs["amplitude"] = _number(node["amplitude"], f"{path}.amplitude")
    if "omega" in node:
        kwargs["omega"] = _number(node["omega"], f"{path}.omega")
    if node.get("offset") is not None:
        kwargs["offset"] = _number(node["offset"], f"{path}.offset")
    try:
        return Excitation(**kwargs)
    except MemElementsError as err:
        raise ConfigError(f"{path}: {err}") from err


def descriptor_from_spec(node, path: str = "descriptor") -> ElementDescriptor:
    if not isinstance(node, dict):
        raise ConfigError(f"{path} must be an object")
    alpha = _require(node, "alpha", path)
    beta = _require(node, "beta", path)
    for name, value in (("alpha", alpha), ("beta", beta)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}.{name} must be an integer")
    try:
        return ElementDescriptor(alpha=alpha, beta=beta)
    except MemElementsError as err:
        raise ConfigError(f"{path}: {err}") from err


def tolerances_from_spec(node, numeric: bool, path: str = "tolerances") -> ToleranceSet:
    base = NUMERIC_DEFAULTS if numeric else ANALYTIC_DEFAULTS
    if node is None:
        return base
    if not isinstance(node, dict):
        raise ConfigError(f"{path} must be an object")
    known = {f.name for f in dataclasses.fields(ToleranceSet)}
    overrides = {}
    for key, value in node.items():
        if key not in known:
            raise ConfigError(f"{path}.{key} is not a tolerance knob")
        overrides[key] = _number(value, f"{path}.{key}")
    try:
        return dataclasses.replace(base, **overrides)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


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


def _grid_n_from(node: dict, path: str) -> int:
    value = node.get("grid_n", DEFAULT_GRID_N)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.grid_n must be an integer")
    return value


# ----------------------------------------------------------------------
# JSON serialization
# ----------------------------------------------------------------------

def _point_to_dict(p: SpecialPoint) -> dict:
    return {
        "t": p.t,
        "u": p.u,
        "w": p.w,
        "kind": p.kind.value,
        "chord_angle": p.chord_angle,
        "tangent_angle": p.tangent_angle,
    }


def report_to_dict(rpt: ClassificationReport) -> dict:
    """JSON-ready dictionary for a classification report."""
    ide = rpt.ideality
    return {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "kind": "classification_report",
        "descriptor": {"alpha": rpt.descriptor.alpha, "beta": rpt.descriptor.beta},
        "element": {
            "name": rpt.element.name,
            "in_six_pointed_star": rpt.element.in_six_pointed_star,
            "constitutive_labels": list(rpt.element.constitutive_labels),
            "verdict_labels": list(rpt.element.verdict_labels),
        },
        "excitation": {
            "amplitude": rpt.excitation.amplitude,
            "omega": rpt.excitation.omega,
            "offset": rpt.excitation.offset,
            "period": rpt.excitation.period,
        },
        "grid_n": rpt.grid_n,
        "provenance": rpt.provenance,
        "tolerances": dataclasses.asdict(rpt.tolerances),
        "ideality": {
            "ideal": ide.ideal,
            "single_valued": ide.single_valued,
            "single_valued_violation_at": ide.single_valued_violation_at,
            "nonlinear": ide.nonlinear,
            "max_secant_deviation": ide.max_secant_deviation,
            "continuously_differentiable": ide.continuously_differentiable,
            "worst_slope_jump": ide.worst_slope_jump,
            "worst_slope_jump_at": ide.worst_slope_jump_at,
            "strictly_monotone": ide.strictly_monotone,
            "violating_interval": (
                list(ide.violating_interval) if ide.violating_interval else None
            ),
            "zero_derivative_abscissae": list(ide.zero_derivative_abscissae),
        },
        "planes": [
            {
                "depth": plane.depth,
                "axis_labels": list(plane.axis_labels),
                "provenance": plane.provenance,
                "pinched": plane.pinched,
                "pinch_points": [_point_to_dict(p) for p in plane.pinch_points],
                "abscissa_zeros": [_point_to_dict(p) for p in plane.abscissa_zeros],
                "valuedness": plane.valuedness.value,
                "max_pair_gap": plane.max_pair_gap,
                "odd_symmetric": plane.odd_symmetric,
                "odd_violation": plane.odd_violation,
                "zero_tangents": [_point_to_dict(p) for p in plane.zero_tangents],
                "vertical_tangents": [
                    _point_to_dict(p) for p in plane.vertical_tangents
                ],
                "negative_arcs": [
                    {"t_start": a.t_start, "t_end": a.t_end}
                    for a in plane.negative_arcs
                ],
            }
            for plane in rpt.planes
        ],
        "verdict": rpt.verdict.value,
        "witnesses": [_point_to_dict(p) for p in rpt.witnesses],
        "candidate_witness_magnitude": rpt.candidate_witness_magnitude,
        "degeneration": rpt.degeneration.value,
        "internal_source": rpt.internal_source.value,
        "caveats": list(rpt.caveats),
    }


def suite_to_dict(rep: SuiteReport) -> dict:
    """JSON-ready dictionary for a theorem-suite report."""
    return {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "kind": "suite_report",
        "instances": [
            {
                "index": inst.index,
                "label": inst.label,
                "family": inst.family,
                "ideal": inst.ideal,
                "failed_criteria": list(inst.failed_criteria),
                "checks": {
                    name: {
                        "status": res.status.value,
                        "detail": res.detail,
                        "data": dict(res.data),
                    }
                    for name, res in inst.checks.items()
                },
            }
            for inst in rep.instances
        ],
        "aggregate": {k: dict(v) for k, v in rep.aggregate.items()},
        "counterexamples": list(rep.counterexamples),
        "all_passed": rep.all_passed,
    }


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


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
    descriptor = descriptor_from_spec(_require(cfg, "descriptor", "config"))
    curve = curve_from_spec(_require(cfg, "curve", "config"))
    exc = excitation_from_spec(cfg.get("excitation"))
    numeric = bool(cfg.get("numeric_chain", False))
    tol = tolerances_from_spec(cfg.get("tolerances"), numeric)
    grid_n = _grid_n_from(cfg, "config")
    formats = _formats_from(
        ns.formats if ns.formats is not None else cfg.get("formats"), "formats"
    )

    rpt = classify(
        descriptor, curve, exc, tolerances=tol, grid_n=grid_n, numeric_chain=numeric
    )
    outdir = Path(ns.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = _analysis_files(rpt, formats)
    for name, content in sorted(files.items()):
        (outdir / name).write_text(content, encoding="utf-8")

    print(f"element: {rpt.element.name} (alpha={descriptor.alpha}, beta={descriptor.beta})")
    print(f"verdict: {rpt.verdict.value}")
    if rpt.witnesses:
        p = rpt.witnesses[0]
        print(f"witness: ({p.u:.6g}, {p.w:.6g}) at t = {p.t:.6g}")
    if rpt.candidate_witness_magnitude is not None:
        print(f"candidate witness magnitude: {rpt.candidate_witness_magnitude:.6g}")
    for caveat in rpt.caveats:
        print(f"caveat: {caveat}")
    print("wrote: " + ", ".join(str(outdir / n) for n in sorted(files)))
    return 0


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------

def _cubic() -> PolynomialCurve:
    return PolynomialCurve(coefficients=(0.0, 1.0, 0.0, 1.0 / 3.0))


def _tanh() -> TanhScaledCurve:
    return TanhScaledCurve(a=1.0, b=1.0)


def _degenerate() -> PolynomialCurve:
    return PolynomialCurve(coefficients=(0.0, 0.0, 0.5, -1.0 / 6.0))


def _two_branch() -> TwoBranchCurve:
    return TwoBranchCurve(
        outgoing=PolynomialCurve(coefficients=(0.0, 1.0, 0.0, 1.0 / 3.0)),
        returning=PolynomialCurve(coefficients=(0.0, 4.0 / 3.0, 0.5)),
    )


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
    exc = Excitation()
    t = grid(exc).t_values
    ordinate = chain_ordinate(curve, exc, t, 1)
    rate = excite(exc, t, 1)
    csv_text = columns_to_csv("t,ordinate,abscissa_rate", t, ordinate, rate)

    # overlay convention: drive rate rescaled to share the ordinate's peak
    scale = float(np.max(ordinate)) / float(np.max(rate))
    ph = phase_shift(curve, exc)
    panel = Panel(title=title, xlabel="t", ylabel="rate", include_origin=False)
    panel.add_series("depth-1 ordinate", t, ordinate)
    panel.add_series(f"drive rate (scaled {scale:.3g}x)", t, rate * scale)
    panel.add_marker(ph.t_peak_ordinate,
                     float(chain_ordinate(curve, exc, ph.t_peak_ordinate, 1)),
                     f"peak t = {ph.t_peak_ordinate:.4g}")
    panel.add_marker(ph.t_peak_abscissa,
                     float(excite(exc, ph.t_peak_abscissa, 1)) * scale,
                     f"peak t = {ph.t_peak_abscissa:.4g}")
    svg = render_svg(
        [panel],
        title=f"{title} (shift = {ph.shift:+.4g}, {ph.classification.value})",
    )
    return {f"{stem}.csv": csv_text, f"{stem}.svg": svg}


def _fig2() -> dict[str, str]:
    return _chain_figure(
        _cubic(), (-1, -1), "fig2", "first-order memristor: pinched loop"
    )


def _fig4() -> dict[str, str]:
    return _chain_figure(
        _two_branch(), (-1, -1), "fig4", "two-branch curve: open hysteresis loop"
    )


def _fig6() -> dict[str, str]:
    return _waveform_figure(
        _cubic(), "fig6", "cubic curve: ordinate rate lags the drive rate"
    )


def _fig7() -> dict[str, str]:
    return _chain_figure(
        _cubic(), (-2, -2), "fig7", "second-order memristor: off-origin witness"
    )


def _fig8() -> dict[str, str]:
    return _waveform_figure(
        _tanh(), "fig8", "tanh curve: ordinate rate advances the drive rate"
    )


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


FIGURES = {
    "fig2": _fig2,
    "fig4": _fig4,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig10": _fig10,
}


def cmd_figure(ns: argparse.Namespace) -> int:
    builder = FIGURES[ns.id]
    files = builder()
    outdir = Path(ns.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, content in sorted(files.items()):
        (outdir / name).write_text(content, encoding="utf-8")
    print("wrote: " + ", ".join(str(outdir / n) for n in sorted(files)))
    return 0


# ----------------------------------------------------------------------
# suite
# ----------------------------------------------------------------------

def _default_suite_curves() -> list[ConstitutiveCurve]:
    return [
        _cubic(),
        _tanh(),
        _degenerate(),
        PiecewiseLinearCurve(knots=((0.0, 0.0), (1.0, 0.5), (2.0, 2.0))),
    ]


def cmd_suite(ns: argparse.Namespace) -> int:
    if ns.config is not None:
        cfg = _load_json(ns.config)
        raw_curves = _require(cfg, "curves", "config")
        if not isinstance(raw_curves, list) or not raw_curves:
            raise ConfigError("config.curves must be a non-empty array")
        curves = [
            curve_from_spec(node, f"config.curves[{i}]")
            for i, node in enumerate(raw_curves)
        ]
        exc = excitation_from_spec(cfg.get("excitation"))
        tol = tolerances_from_spec(cfg.get("tolerances"), numeric=False)
        grid_n = _grid_n_from(cfg, "config")
    else:
        curves = _default_suite_curves()
        exc = Excitation()
        tol = ANALYTIC_DEFAULTS
        grid_n = DEFAULT_GRID_N

    rep = theorem_suite(curves, exc, tol, grid_n)
    outdir = Path(ns.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "suite_report.json"
    path.write_text(_dump_json(suite_to_dict(rep)), encoding="utf-8")

    for inst in rep.instances:
        statuses = ", ".join(
            f"{name}={res.status.value}" for name, res in inst.checks.items()
        )
        print(f"[{inst.index}] {inst.label}: {statuses}")
    print(f"all_passed: {rep.all_passed}")
    for line in rep.counterexamples:
        print(f"counterexample: {line}")
    print(f"wrote: {path}")
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


def cmd_sweep(ns: argparse.Namespace) -> int:
    cfg = _load_json(ns.config)
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
    targets: list[str] = []
    grids: list[list] = []
    for i, axis in enumerate(axes):
        if not isinstance(axis, dict):
            raise ConfigError(f"config.axes[{i}] must be an object")
        target = _require(axis, "target", f"config.axes[{i}]")
        values = _require(axis, "values", f"config.axes[{i}]")
        if not isinstance(values, list) or not values:
            raise ConfigError(f"config.axes[{i}].values must be a non-empty array")
        targets.append(str(target))
        grids.append(values)

    header = targets + [
        "verdict",
        "witness_magnitude",
        "candidate_witness_magnitude",
        "degeneration",
        "internal_source",
    ]
    rows: list[list[str]] = []
    counts: dict[str, int] = {}
    for combo in itertools.product(*grids):
        trial = json.loads(json.dumps(base))
        for target, value in zip(targets, combo):
            _set_path(trial, target, value)
        numeric = bool(trial.get("numeric_chain", False))
        try:
            rpt = classify(
                descriptor_from_spec(trial["descriptor"]),
                curve_from_spec(trial["curve"]),
                excitation_from_spec(trial.get("excitation")),
                tolerances=tolerances_from_spec(trial.get("tolerances"), numeric),
                grid_n=int(trial.get("grid_n", DEFAULT_GRID_N)),
                numeric_chain=numeric,
            )
        except ConfigError:
            raise
        except MemElementsError as err:
            rows.append(
                [repr(float(v)) for v in combo]
                + [f"error: {err}", "", "", "", ""]
            )
            counts["error"] = counts.get("error", 0) + 1
            continue
        witness = max((max(abs(p.u), abs(p.w)) for p in rpt.witnesses), default=0.0)
        cand = rpt.candidate_witness_magnitude
        rows.append(
            [repr(float(v)) for v in combo]
            + [
                rpt.verdict.value,
                repr(witness) if rpt.witnesses else "",
                repr(cand) if cand is not None else "",
                rpt.degeneration.value,
                rpt.internal_source.value,
            ]
        )
        counts[rpt.verdict.value] = counts.get(rpt.verdict.value, 0) + 1

    csv_text = "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
    outdir = Path(ns.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "sweep.csv"
    path.write_text(csv_text, encoding="utf-8")
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    print(f"{len(rows)} runs ({summary})")
    print(f"wrote: {path}")
    return 0


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
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
