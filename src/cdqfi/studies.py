"""Propagator error studies and system-size scaling reports."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig
from .magnus import WindowPlan, truncation_error_bound
from .pauli import build_basis
from .schedule import reference_schedule
from .trainer import (
    build_context,
    keep_freed_memory,
    propagate_sequential,
    propagate_windowed,
    protocol_rows,
)


@dataclass
class MagnusStudyRow:
    n_w: int
    p: int
    eta_error: float
    state_error: float
    bound: float


def magnus_study(
    config: RunConfig,
    n_w_list,
    p_list,
    params: dict | None = None,
    out_dir=None,
) -> list[MagnusStudyRow]:
    """Windowed-vs-sequential error sweep over window counts and orders.

    Without parameters the protocol is the reference schedule with zero
    gauge potential; with a checkpoint's parameters the learned protocol is
    studied instead.  Emits CSV (n_w, p, measured_error, bound) and a
    log-log SVG when out_dir is given.
    """
    if not n_w_list or not p_list:
        raise ValueError("need at least one window count and one order")
    keep_freed_memory()
    ctx = build_context(config)
    grid = ctx.grid
    if params is None:
        lam, dlam = reference_schedule(grid.times)
        a_rows = np.zeros((grid.n_t, ctx.basis.size))
    else:
        lam, dlam, a_rows = protocol_rows(config, params, ctx)
    prop = propagate_sequential(ctx, lam, dlam, a_rows, want_prefix=False)
    eta_seq = prop.f_q / prop.f_q_max

    rows_out = []
    for n_w in n_w_list:
        plan = WindowPlan(grid.n_t, n_w)
        for p in p_list:
            psi, f_q_win, _ = propagate_windowed(ctx, prop.h_dense, plan, p)
            rows_out.append(
                MagnusStudyRow(
                    n_w=n_w,
                    p=p,
                    eta_error=abs(f_q_win / prop.f_q_max - eta_seq),
                    state_error=float(np.linalg.norm(psi - prop.central.psi_final)),
                    bound=truncation_error_bound(grid.horizon, n_w, p),
                )
            )

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "magnus_study.csv", "w") as f:
            f.write("n_w,p,measured_error,bound\n")
            for r in rows_out:
                f.write(f"{r.n_w},{r.p},{r.eta_error:.17g},{r.bound:.17g}\n")
        from .svgplot import line_chart

        series = []
        for p in p_list:
            sub = [r for r in rows_out if r.p == p]
            series.append(
                {"x": [r.n_w for r in sub], "y": [max(r.eta_error, 1e-18) for r in sub],
                 "label": f"measured p={p}"}
            )
            series.append(
                {"x": [r.n_w for r in sub], "y": [r.bound for r in sub],
                 "label": f"bound p={p}", "dashed": True}
            )
        line_chart(
            out / "magnus_study.svg",
            series,
            title="Windowed propagation error",
            xlabel="windows",
            ylabel="error",
            logx=True,
            logy=True,
        )
    return rows_out


@dataclass
class ScalabilityRow:
    q: int
    k: int
    basis_size: int
    n_out: int
    m_out_gib: float


def output_memory_gib(n_t: int, n_out: int, bytes_per_value: int = 4) -> float:
    """Memory of the per-grid output tensor in GiB (float32 values)."""
    return n_t * n_out * bytes_per_value / 1024**3


def scalability_report(
    q_list, k: int, n_t: int = 256, out_dir=None
) -> list[ScalabilityRow]:
    """Basis counts and output-tensor memory per system size."""
    rows = []
    for q in q_list:
        kk = min(k, q)
        basis = build_basis(q, kk)
        n_out = 1 + basis.size
        rows.append(
            ScalabilityRow(
                q=q,
                k=kk,
                basis_size=basis.size,
                n_out=n_out,
                m_out_gib=output_memory_gib(n_t, n_out),
            )
        )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "scalability.csv", "w") as f:
            f.write("q,k,basis_size,n_out,m_out_gib\n")
            for r in rows:
                f.write(f"{r.q},{r.k},{r.basis_size},{r.n_out},{r.m_out_gib:.17g}\n")
    return rows
