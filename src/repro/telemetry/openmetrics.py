"""OpenMetrics text exposition + JSON dashboard snapshot.

``openmetrics_text`` renders a :class:`~repro.telemetry.metrics.
MetricsRegistry` (and, optionally, windowed-series totals) in the
OpenMetrics text format — ``# TYPE`` family declarations, ``_total``
counter samples, label escaping, terminating ``# EOF`` — so any
Prometheus-compatible scraper or ``promtool check metrics`` can consume
a run's telemetry. ``validate_openmetrics`` is the matching
self-contained parser the tests use (no external tooling in the
loop). ``dashboard_snapshot`` bundles series,
summaries, health, and the alert timeline into one JSON-ready dict —
the "dashboard" a browser UI or notebook would render.

Everything is deterministic: families and samples are emitted in
sorted order, and values use ``repr``-stable formatting.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.metrics import (
    BucketHistogram,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)

_QUANTILES = (("0.5", 50.0), ("0.95", 95.0))


def metric_name(name: str) -> str:
    """Registry name → OpenMetrics name (dots and dashes become ``_``)."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not _NAME_RE.match(cleaned):
        cleaned = f"_{cleaned}"
    return cleaned


def _escape(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _labels_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{metric_name(key)}="{_escape(str(val))}"'
        for key, val in sorted(labels.items())
    )
    return f"{{{inner}}}"


def _format(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def openmetrics_text(
    registry: MetricsRegistry,
    series: Optional[Any] = None,
) -> str:
    """The registry (and optional series totals) as OpenMetrics text."""
    # Group instruments into families first: one # TYPE line per name.
    families: Dict[str, Tuple[str, List[Tuple[Dict[str, str], Any]]]] = {}
    for name, labels, instrument in registry.collect():
        if isinstance(instrument, Counter):
            family_type = "counter"
        elif isinstance(instrument, Gauge):
            family_type = "gauge"
        elif isinstance(instrument, (Histogram, BucketHistogram)):
            family_type = "summary"
        else:  # pragma: no cover - no other instrument types exist
            continue
        family = families.setdefault(metric_name(name), (family_type, []))
        if family[0] != family_type:
            raise ValueError(
                f"metric family {name!r} mixes instrument types"
            )
        family[1].append((labels, instrument))

    lines: List[str] = []
    for fam_name in sorted(families):
        family_type, members = families[fam_name]
        lines.append(f"# TYPE {fam_name} {family_type}")
        for labels, instrument in members:
            label_text = _labels_text(labels)
            if family_type == "counter":
                lines.append(
                    f"{fam_name}_total{label_text} "
                    f"{_format(instrument.value)}"
                )
            elif family_type == "gauge":
                lines.append(
                    f"{fam_name}{label_text} {_format(instrument.value)}"
                )
            else:
                count = instrument.count
                for quantile_label, percentile in _QUANTILES:
                    merged = dict(labels)
                    merged["quantile"] = quantile_label
                    value = (
                        instrument.percentile(percentile) if count else 0.0
                    )
                    lines.append(
                        f"{fam_name}{_labels_text(merged)} {_format(value)}"
                    )
                lines.append(f"{fam_name}_count{label_text} {count}")
                lines.append(
                    f"{fam_name}_sum{label_text} {_format(instrument.total)}"
                )
    if series is not None:
        lines.append("# TYPE repro_series_observations gauge")
        for name, labels, one_series in series.collect():
            merged = dict(labels)
            merged["series"] = name
            merged["series_kind"] = one_series.kind
            if one_series.kind == "counter":
                value = one_series.total
            elif one_series.kind == "gauge":
                value = one_series.value
            else:
                value = float(one_series.count)
            lines.append(
                f"repro_series_observations{_labels_text(merged)} "
                f"{_format(value)}"
            )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def validate_openmetrics(text: str) -> Dict[str, int]:
    """Parse OpenMetrics text; raise ValueError on any shape violation.

    Checks: terminating ``# EOF``; every sample parses and belongs to a
    declared family; counter samples use the ``_total`` suffix; family
    names are valid and declared exactly once; values are finite
    floats. Returns ``{"families": N, "samples": M}``.
    """
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        raise ValueError("OpenMetrics text must end with '# EOF'")
    declared: Dict[str, str] = {}
    samples = 0
    for line_number, line in enumerate(lines[:-1], start=1):
        if not line:
            raise ValueError(f"line {line_number}: blank line")
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ValueError(f"line {line_number}: malformed TYPE line")
            _, _, fam_name, family_type = parts
            if not _NAME_RE.match(fam_name):
                raise ValueError(
                    f"line {line_number}: bad family name {fam_name!r}"
                )
            if family_type not in ("counter", "gauge", "summary",
                                   "histogram", "unknown"):
                raise ValueError(
                    f"line {line_number}: bad family type {family_type!r}"
                )
            if fam_name in declared:
                raise ValueError(
                    f"line {line_number}: family {fam_name!r} "
                    "declared twice"
                )
            declared[fam_name] = family_type
            continue
        if line.startswith("#"):
            continue  # HELP/UNIT lines are legal; we don't emit them
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {line_number}: unparseable sample")
        sample_name = match.group("name")
        family = None
        for suffix in ("_total", "_count", "_sum", ""):
            if suffix and sample_name.endswith(suffix):
                candidate = sample_name[: -len(suffix)]
            elif not suffix:
                candidate = sample_name
            else:
                continue
            if candidate in declared:
                family = candidate
                break
        if family is None:
            raise ValueError(
                f"line {line_number}: sample {sample_name!r} has no "
                "declared family"
            )
        if declared[family] == "counter" and not sample_name.endswith(
            ("_total", "_created")
        ):
            raise ValueError(
                f"line {line_number}: counter sample {sample_name!r} "
                "must end with _total"
            )
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise ValueError(
                f"line {line_number}: bad sample value"
            ) from exc
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"line {line_number}: non-finite value")
        samples += 1
    return {"families": len(declared), "samples": samples}


def dashboard_snapshot(
    registry: MetricsRegistry,
    series: Any,
    health: Optional[Any] = None,
    engine: Optional[Any] = None,
    now: float = 0.0,
) -> Dict[str, Any]:
    """One JSON-ready document bundling every observability surface."""
    doc: Dict[str, Any] = {
        "schema": "repro-obs/1",
        "virtual_time": now,
        "window": series.window,
        "metrics": registry.summaries(),
        "series": series.snapshot(),
    }
    if health is not None:
        doc["health"] = health.snapshot(now)
    if engine is not None:
        doc["alerts"] = {
            "fired": engine.alerts_fired,
            "firing": engine.firing,
            "timeline": engine.timeline,
        }
    return doc
