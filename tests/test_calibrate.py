import json
import math
import os
import subprocess
import sys

import pytest

import shufflelab
from shufflelab.calibrate import (
    keyup_square_envelope,
    load_calibration,
    measure_constants,
    rv_abs_envelope,
    rv_sq_envelope,
    write_calibration,
)


class TestEnvelopeShapes:
    def test_keyup_envelope_min_branches(self):
        # small alpha -> cubic branch, large alpha -> 1/alpha branch
        logsq = math.log(8 * 8 / 0.05) ** 2
        assert keyup_square_envelope(8, 0.01) == pytest.approx(logsq * 8**3 * 1e-4)
        assert keyup_square_envelope(8, 0.9) == pytest.approx(logsq / 0.9)

    def test_rv_abs_branch_structure(self):
        assert rv_abs_envelope(10, 0.01) == pytest.approx(0.2)  # 2 n a
        big = rv_abs_envelope(10, 0.5)
        assert big == pytest.approx(math.log(math.sqrt(1.0) * 800) / math.sqrt(0.5))

    def test_rv_sq_branch_structure(self):
        small = rv_sq_envelope(10, 0.01)
        assert small == pytest.approx(math.log(8 / 0.1) ** 2 * 1000 * 1e-4)
        big = rv_sq_envelope(10, 0.5)
        assert big == pytest.approx(math.log(8 * 100 * 0.25) ** 2 / 0.5)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            keyup_square_envelope(8, 0.0)
        with pytest.raises(ValueError):
            rv_abs_envelope(8, -0.1)


class TestCalibrationFile:
    def test_measured_constants_sane(self):
        doc = measure_constants()
        assert set(doc) == {
            "beta_envelope_c_lo", "beta_envelope_c_hi", "keyup_sq_c",
            "rv_abs_c1", "rv_sq_c2", "rv_sq_c3",
        }
        for rec in doc.values():
            assert 0.0 < rec["value"] < math.inf
            assert rec["grid_description"]
            assert rec["computed_at"]
        assert doc["beta_envelope_c_lo"]["value"] <= doc["beta_envelope_c_hi"]["value"]

    def test_write_and_load_round_trip(self, tmp_path):
        path = tmp_path / "cal.json"
        written = write_calibration(path)
        loaded = load_calibration(path)
        assert loaded == json.loads(json.dumps(written))

    def test_packaged_file_matches_fresh_sweep(self):
        stored = load_calibration()
        fresh = measure_constants()
        for name, rec in fresh.items():
            assert stored[name]["value"] == pytest.approx(rec["value"], rel=1e-12)

    def test_module_command_writes_a_fresh_sweep(self, tmp_path):
        # `python -m shufflelab.calibrate PATH`, the way the packaged file is made
        path = tmp_path / "cal.json"
        src = os.path.dirname(os.path.dirname(shufflelab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "shufflelab.calibrate", str(path)],
                              env=env, capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == f"wrote {path}"
        written, stored = load_calibration(path), load_calibration()
        fresh = measure_constants()
        assert {name: rec["value"] for name, rec in written.items()} == {
            name: rec["value"] for name, rec in fresh.items()}
        for name, rec in written.items():  # verify's drift bound
            ref = stored[name]["value"]
            assert abs(rec["value"] - ref) / abs(ref) <= 1e-9

    def test_calibrated_constant_lookup(self):
        doc = load_calibration()
        assert doc["beta_envelope_c_hi"]["value"] == pytest.approx(0.5, rel=1e-12)
        assert "nonexistent" not in doc

    def test_keyup_envelope_holds_with_stored_constant(self):
        # measured constant makes the envelope an actual ceiling on the grid
        import numpy as np
        from shufflelab import analysis

        c = load_calibration()["keyup_sq_c"]["value"]
        for n in (4, 8, 12):
            for alpha in (0.05, 0.25, 1.0):
                alphas = np.full(n, alpha)
                betas = np.array([-1.0] * (n // 2) + [1.0] * (n // 2))
                e_sq = analysis.expected_keyup_square(alphas, betas)
                assert e_sq <= c * keyup_square_envelope(n, alpha) * (1 + 1e-9)
