import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from spinfanout.core import _SLICE, CapExceededError, DenseOperator, DiagonalOperator
from spinfanout.gates import standard_gate
from spinfanout.explore import (
    SCAN_TOL,
    ParityDiagonalVerdict,
    ScanResult,
    _energy_levels,
    classify_parity_diagonal,
    default_time_grid,
    scan,
)
from spinfanout.hamiltonians import (
    CouplingMatrix,
    DiagonalHamiltonian,
    build_hn,
    build_kn,
    build_l2,
    build_ring,
    evolve,
    un,
)
from spinfanout.report import scan_result_json, scan_result_summary


class TestClassify:
    def test_un6_usable_plus(self):
        v = classify_parity_diagonal(un(6))
        assert v.parity_usable
        assert v.relative_phase == pytest.approx(math.pi / 2, abs=1e-9)

    def test_un8_usable_minus(self):
        v = classify_parity_diagonal(un(8))
        assert v.parity_usable
        assert v.relative_phase == pytest.approx(-math.pi / 2, abs=1e-9)

    def test_identity_not_usable(self):
        v = classify_parity_diagonal(DiagonalOperator.identity(3))
        assert v.is_diagonal and not v.parity_usable
        assert v.relative_phase == pytest.approx(0.0)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_even_n_always_usable(self, n):
        assert classify_parity_diagonal(un(n)).parity_usable

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_odd_n_never_usable(self, n):
        assert not classify_parity_diagonal(un(n)).parity_usable

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError, match="at least one qubit"):
            classify_parity_diagonal(DiagonalOperator(0, [1]))

    @pytest.mark.parametrize("u", [
        pytest.param(standard_gate("X").unitary, id="dense"),
        pytest.param(DiagonalOperator(1, [0, 1]), id="diagonal"),
    ])
    def test_first_entry_exactly_zero_has_no_relative_phase(self, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = classify_parity_diagonal(u)
        assert not v.parity_usable
        assert math.isnan(v.relative_phase)
        assert v.score == math.inf

    @pytest.mark.parametrize("entry, at", [
        (0.5j, (0, 0)), (math.nan, (0, 0)), (math.nan, (0, 1)), (math.inf, (1, 1)),
        (complex(0, -math.inf), (1, 0)),
    ])
    def test_off_diagonal_maximum_equals_the_subtracted_diagonal(self, entry, at):
        # the maximum over the matrix less its diagonal: a NaN or an infinite
        # diagonal entry gives NaN, as inf - inf does
        m = np.array([[1, 0.25], [-0.5j, 1j]], dtype=complex)
        m[at] = entry
        with np.errstate(invalid="ignore"):
            off_max = classify_parity_diagonal(DenseOperator(1, m)).off_diag_max
            expected = float(np.max(np.abs(m - np.diag(np.diag(m)))))
        assert off_max == expected or math.isnan(off_max) and math.isnan(expected)

    def test_off_diagonal_detected(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        v = classify_parity_diagonal(DenseOperator(1, h))
        assert not v.is_diagonal
        assert v.off_diag_max == pytest.approx(1 / np.sqrt(2))


class TestDefaultGrid:
    def test_contains_quarter_turns(self):
        grid = default_time_grid()
        assert any(abs(t - math.pi / 4) < 1e-12 for t in grid)
        assert any(abs(t - 3 * math.pi / 4) < 1e-12 for t in grid)

    def test_strictly_increasing_no_duplicates(self):
        grid = default_time_grid()
        diffs = np.diff(grid)
        assert np.all(diffs > 1e-12)


class TestScan:
    def test_caps_reach_the_evolver(self, lower_caps):
        h = build_l2(5)
        lower_caps(dense=4, l2=4, state=6)
        with pytest.raises(CapExceededError):
            scan(h, [math.pi / 4])

    def test_hn6_at_quarter_pi(self):
        res = scan(build_hn(6), [math.pi / 4], hamiltonian_id="hn6")
        assert res.verdicts[0].parity_usable
        assert res.best_time == pytest.approx(math.pi / 4)

    def test_ring_scan_completes(self):
        res = scan(build_kn(build_ring(6, 1.0)), default_time_grid(), hamiltonian_id="ring6")
        assert len(res.verdicts) == len(res.times)
        assert all(v.is_diagonal for v in res.verdicts)  # ZZ couplings stay diagonal

    def test_l2_scan_completes(self):
        grid = [k * math.pi / 8 for k in range(1, 17)]
        res = scan(build_l2(4), grid, hamiltonian_id="l2")
        assert len(res.verdicts) == 16

    def test_determinism(self):
        grid = default_time_grid()[:64]
        a = scan(build_kn(build_ring(4, 1.0)), grid, hamiltonian_id="r")
        b = scan(build_kn(build_ring(4, 1.0)), grid, hamiltonian_id="r")
        assert scan_result_json(a) == scan_result_json(b)

    def test_best_is_the_first_lowest_score(self):
        usable, identity = (classify_parity_diagonal(u)
                            for u in (un(6), DiagonalOperator.identity(2)))
        res = ScanResult("r", (1.0, 2.0, 3.0, 4.0), (identity, usable, identity, usable))
        assert res.best == 1 and res.best_time == 2.0 and res.best_verdict is usable
        assert "best" not in {f.name for f in dataclasses.fields(ScanResult)}

    def test_best_does_not_depend_on_rounding(self):
        # a later score lower by far less than SCAN_TOL does not win; with a
        # NaN score, the first NaN does, as argmin gives
        identity = classify_parity_diagonal(DiagonalOperator.identity(2))
        high, near, low, nan = (dataclasses.replace(identity, score=s)
                                for s in (1.0, 0.5 + 1e-12, 0.5, math.nan))
        assert ScanResult("r", (1.0, 2.0, 3.0), (high, near, low)).best == 1
        assert ScanResult("r", (1.0, 2.0, 3.0, 4.0), (high, near, nan, low)).best == 2

    def test_l2_best_is_pi(self):
        # U is proportional to I at pi and at 2 pi, whose scores differ by rounding
        res = scan(build_l2(6), default_time_grid(), hamiltonian_id="l2")
        times = np.array(res.times)
        pi, two_pi = (int(np.argmin(np.abs(times - t))) for t in (math.pi, 2 * math.pi))
        assert abs(res.verdicts[pi].score - res.verdicts[two_pi].score) < SCAN_TOL
        assert res.best == pi == 319

    def test_json_line_of_a_verdict_with_no_relative_phase(self):
        x, identity = (classify_parity_diagonal(u)
                       for u in (standard_gate("X").unitary, DiagonalOperator.identity(1)))
        res = ScanResult("x", (1.0, 2.0), (x, identity))
        assert res.best == 1  # an infinite score is never the best over a finite one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = [json.loads(line) for line in scan_result_json(res).splitlines()]
        assert rows[0]["relative_phase"] is None and rows[0]["score"] is None
        assert rows[0]["phase_even_re"] == 0 and not rows[0]["parity_usable"]
        assert [row["best"] for row in rows] == [False, True]

    def test_json_lines(self):
        assert scan_result_json(ScanResult("hn", (), ())) == ""
        text = scan_result_json(scan(build_hn(4), [math.pi / 4, 1.0], hamiltonian_id="hn"))
        lines = text.split("\n")
        assert len(lines) == 3 and lines[-1] == ""
        assert all(json.loads(line)["hamiltonian_id"] == "hn" for line in lines[:-1])

    def test_diagonal_path_never_densifies(self, monkeypatch):
        def boom(self):
            raise AssertionError("diagonal scan must not densify")

        monkeypatch.setattr(DiagonalOperator, "to_dense", boom)
        res = scan(build_hn(8), default_time_grid()[:32], hamiltonian_id="hn8")
        assert len(res.verdicts) == 32

    def test_summary_output(self):
        res = scan(build_hn(6), [math.pi / 4, math.pi / 2], hamiltonian_id="hn6")
        text = scan_result_summary(res)
        assert "pi/4" in text and "parity-usable" in text


_LEVEL_GRID = default_time_grid()[:64] + [k * math.pi / 4 for k in (1, 3, 5, 7)]


def _random_kn(n):
    return build_kn(CouplingMatrix(n, np.triu(np.random.default_rng(n).normal(size=(n, n)), 1)))


_DIAGONAL_CASES = (
    [pytest.param(lambda n=n: build_hn(n), id=f"hn{n}") for n in range(1, 13)]
    + [
        pytest.param(lambda n=n, j=j: build_kn(build_ring(n, j)), id=f"ring{n}-J{j}")
        for n in range(3, 11)
        for j in (1.0, 0.37)
    ]
    + [pytest.param(lambda n=n: _random_kn(n), id=f"kn{n}") for n in [*range(2, 9), 10, 12]]
)


class TestLevelScan:
    """A diagonal scan classifies energy levels; it must equal classifying every entry."""

    @pytest.mark.parametrize("build", _DIAGONAL_CASES)
    def test_verdicts_equal_full_classification(self, build):
        h = build()
        expected = tuple(classify_parity_diagonal(evolve(h, t)) for t in _LEVEL_GRID)
        assert scan(h, _LEVEL_GRID).verdicts == expected  # every field, exactly

    @pytest.mark.parametrize("n", [10, 12])
    def test_random_couplings_span_several_chunks(self, n):
        levels, _ = _energy_levels(_random_kn(n))
        assert len(levels) >= 1 << 9
        assert max(1, _SLICE // len(levels)) * 2 < len(_LEVEL_GRID)

    def test_non_finite_time_in_a_later_chunk_raises_like_evolve(self):
        h = _random_kn(12)
        grid = _LEVEL_GRID[:20] + [1e308] + _LEVEL_GRID[20:]
        with pytest.raises(ValueError, match="not finite") as from_evolve:
            evolve(h, 1e308)
        with pytest.raises(ValueError, match="not finite") as from_scan:
            scan(h, grid)
        assert str(from_scan.value) == str(from_evolve.value)

    def test_vanishing_first_entry_is_not_divided_by(self):
        # |(0, 0)| = 1e-13 leaves the diagonal as it is; dividing entry 3 by
        # it would overflow
        diag = np.array([1e-13, 0.5j, -0.25, 1e296])
        mat = np.diag(diag)
        mat[0, 3] = 0.125
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = classify_parity_diagonal(DenseOperator(2, mat))
        rel = complex(diag[1]) / complex(diag[0])
        quarter_turn_dist = min(abs(rel - 1j), abs(rel + 1j))
        spread_even = float(np.max(np.abs(diag[[0, 3]] - diag[0])))
        spread_odd = float(np.max(np.abs(diag[[1, 2]] - diag[1])))
        assert v == ParityDiagonalVerdict(
            is_diagonal=False,
            off_diag_max=0.125,
            phase_even=complex(diag[0]),
            phase_odd=complex(diag[1]),
            relative_phase=math.atan2(rel.imag, rel.real),
            parity_usable=False,
            score=0.125 + spread_even + spread_odd + quarter_turn_dist,
        )

    def test_non_finite_time_raises_like_evolve(self):
        h = build_hn(3)
        with pytest.raises(ValueError, match="not finite") as from_evolve:
            evolve(h, 1e308)
        with pytest.raises(ValueError, match="not finite") as from_scan:
            scan(h, [1.0, 1e308])
        assert str(from_scan.value) == str(from_evolve.value)

    @pytest.mark.parametrize("h", [build_hn(3), build_l2(2)], ids=["diagonal", "dense"])
    def test_empty_grid_rejected(self, h):
        with pytest.raises(ValueError, match="empty time grid"):
            scan(h, [])

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError, match="at least one qubit"):
            scan(DiagonalHamiltonian(0, [0.0]), [1.0])
