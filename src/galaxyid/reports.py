"""Flat report rows and their CSV / JSON-lines renderings.

One fixed column set per schema version; columns carry their formula
provenance in the name (lemma1 / claim1 / csw / asymptotic for analytic
values, mc for Monte Carlo estimates).  Values are emitted with repr-level
precision so re-runs are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict

from .experiments import ErrorEstimate, RateReport
from .galaxy import GalaxyParams, asymptotic_rate, center_count_bounds, rate_lower_bound
from .spherical import csw_lower_bound

__all__ = ["SCHEMA_VERSION", "REPORT_COLUMNS", "rate_columns", "build_row", "render_csv",
           "render_jsonl"]

SCHEMA_VERSION = 1

REPORT_COLUMNS = [
    "schema_version",
    "command",
    "n",
    "k",
    "b",
    "power",
    "sigma",
    "theta",
    "m_per_level",
    "t_bar",
    "r",
    "spacing",
    "build_seed",
    "num_roots",
    "num_codewords",
    "m_achieved",
    "packing_saturated",
    "rate_achieved",
    "rate_bound_lemma1",
    "rate_asymptotic",
    "count_bound_claim1_lo",
    "count_bound_claim1_hi",
    "m_bound_csw",
    "structure_passed",
    "mc_kind",
    "mc_pair_mode",
    "mc_trials",
    "mc_hits",
    "mc_p_hat",
    "mc_wilson_lo",
    "mc_wilson_hi",
    "mc_rule_of_three",
    "mc_analytic_bound",
    "mc_bound_formula",
    "mc_exceeds_bound",
    "mc_shell_hits",
    "mc_decisive_slab_hits",
    "mc_seed",
    "error",
]


def rate_columns(k: int, b: float, theta: float, n: int | None = None,
                 power: float | None = None) -> dict:
    """The analytic rate columns of a row, with the parameters they follow.

    Always k, b, theta and rate_asymptotic; with n also n and m_bound_csw;
    with n and power also power, rate_bound_lemma1 and the claim-1 bounds.
    """
    cols = dict(k=k, b=b, theta=theta, rate_asymptotic=asymptotic_rate(b, k))
    if n is not None:
        cols.update(n=n, m_bound_csw=csw_lower_bound(n, theta))
        if power is not None:
            lo, hi = center_count_bounds(n, power, b)
            cols.update(power=power, rate_bound_lemma1=rate_lower_bound(n, power, b, k, theta),
                        count_bound_claim1_lo=lo, count_bound_claim1_hi=hi)
    return cols


def build_row(
    command: str,
    params: GalaxyParams | None = None,
    rate: RateReport | None = None,
    estimate: ErrorEstimate | None = None,
    pair_mode: str = "",
    structure_passed: bool | None = None,
    error: str | None = None,
) -> dict:
    """Assemble one schema-v1 row; absent pieces leave their columns blank.
    A rate report brings the rate_columns of params with it."""
    row = {c: "" for c in REPORT_COLUMNS}
    row["schema_version"] = SCHEMA_VERSION
    row["command"] = command
    if params is not None:
        row.update(
            n=params.n,
            k=params.k,
            b=params.b,
            power=params.power,
            sigma=params.sigma,
            theta=params.theta,
            m_per_level=params.m_per_level,
            t_bar=params.t_bar,
            r=params.r,
            spacing=params.spacing,
            build_seed=params.master_seed,
        )
    if rate is not None:  # each RateReport field is the column of its name
        row.update(asdict(rate))
        row.update(rate_columns(params.k, params.b, params.theta, params.n, params.power))
    if structure_passed is not None:
        row["structure_passed"] = structure_passed
    if estimate is not None:
        row.update(
            mc_kind=estimate.kind,
            mc_pair_mode=pair_mode,
            mc_trials=estimate.trials,
            mc_hits=estimate.hits,
            mc_p_hat=estimate.p_hat,
            mc_wilson_lo=estimate.wilson_95[0],
            mc_wilson_hi=estimate.wilson_95[1],
            mc_rule_of_three=estimate.rule_of_three,
            mc_analytic_bound=estimate.analytic_bound,
            mc_bound_formula=estimate.bound_formula,
            mc_exceeds_bound=estimate.p_hat > estimate.analytic_bound,
            mc_shell_hits=estimate.components.get("shell_hits", ""),
            mc_decisive_slab_hits=estimate.components.get("decisive_slab_hits", ""),
            mc_seed=estimate.seed,
        )
    if error is not None:
        row["error"] = error
    return row


def render_csv(rows: list[dict]) -> str:
    """RFC-4180 CSV (CRLF line endings, minimal quoting) with the fixed header."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=REPORT_COLUMNS, lineterminator="\r\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def render_jsonl(rows: list[dict]) -> str:
    return "".join(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n" for row in rows)
