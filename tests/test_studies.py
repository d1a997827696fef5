"""Magnus error sweep and scalability accounting."""

import numpy as np
import pytest

from cdqfi.config import RunConfig
from cdqfi.models import ModelSpec
from cdqfi.network import init_params
from cdqfi.studies import magnus_study, output_memory_gib, scalability_report
from cdqfi.trainer import build_context, evaluate_protocol


def fitted_order(rows, p: int) -> float:
    """Log-log slope of the state error against the window count for one order."""
    sub = sorted((r for r in rows if r.p == p), key=lambda r: r.n_w)
    xs = np.log([r.n_w for r in sub])
    return float(np.polyfit(xs, np.log([r.state_error for r in sub]), 1)[0])


def study_config(**kw):
    base = dict(
        model=ModelSpec("nearest-neighbor", 2), basis_k=2, n_t=64, n_w=8, epochs=1
    )
    base.update(kw)
    return RunConfig(**base)


class TestMagnusStudy:
    def test_errors_shrink_with_windows_and_match_bound_column(self, tmp_path):
        rows = magnus_study(study_config(), [4, 8, 16], [2, 3], out_dir=tmp_path)
        assert len(rows) == 6
        for p in (2, 3):
            sub = [r for r in rows if r.p == p]
            assert sub[0].state_error > sub[-1].state_error
            for r in sub:
                np.testing.assert_allclose(r.bound, 1.0 * (1.0 / r.n_w) ** p)
        text = (tmp_path / "magnus_study.csv").read_text()
        assert text.splitlines()[0] == "n_w,p,measured_error,bound"
        assert (tmp_path / "magnus_study.svg").exists()

    def test_fitted_order_at_least_nominal(self):
        rows = magnus_study(study_config(n_t=128), [4, 8, 16], [1, 2])
        assert fitted_order(rows, 1) <= -0.8
        assert fitted_order(rows, 2) <= -1.6

    def test_invalid_window_count_rejected(self):
        with pytest.raises(ValueError):
            magnus_study(study_config(), [7], [1])

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            magnus_study(study_config(), [], [1])

    def test_eta_error_small_for_zero_agp_reference(self):
        rows = magnus_study(study_config(n_t=256), [16], [3])
        assert rows[0].eta_error <= 1e-3

    def test_matches_evaluation_at_the_config_plan(self):
        # the study and the evaluation share one propagation of the protocol
        cfg = study_config(seed=11)
        params = init_params(build_context(cfg).shape, cfg.seed)
        report, _ = evaluate_protocol(cfg, params)
        rows = magnus_study(cfg, [cfg.n_w], [cfg.order], params)
        assert report.eps_eta > 0.0
        assert rows[0].eta_error == report.eps_eta


class TestScalability:
    def test_basis_counts_without_timing(self, tmp_path):
        rows = scalability_report([2, 3, 6], k=4, out_dir=tmp_path)
        by_q = {r.q: r for r in rows}
        assert by_q[2].n_out == 17  # full two-qubit basis plus the schedule output
        assert by_q[3].n_out == 1 + 4**3
        assert by_q[6].basis_size == 1909
        assert by_q[6].n_out == 1910
        np.testing.assert_allclose(by_q[6].m_out_gib, 1.8216e-3, rtol=1e-3)
        header = (tmp_path / "scalability.csv").read_text().splitlines()[0]
        assert header == "q,k,basis_size,n_out,m_out_gib"

    def test_memory_model_formula(self):
        # n_t * n_out * 4 bytes in GiB
        assert output_memory_gib(256, 1910) == 256 * 1910 * 4 / 1024**3
