"""NormalizedSolution disk format: exact bytes and exact round trip."""

import csv
import io
import json

import numpy as np
import pytest

from liouville.grids import make_grid
from liouville.oracles import conformal_bubble
from liouville.solution import CSV_HEADER, NormalizedSolution


def _csv_writer_bytes(sol):
    """The profile CSV as csv.writer writes it, one repr per value."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for row in zip(sol.r, sol.psi, sol.dpsi, sol.mass):
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue().encode()


def test_csv_bytes_match_csv_writer_and_round_trip_exactly(tmp_path):
    sol = conformal_bubble(1.0, 2.0, make_grid(20.0, 512))
    # values whose repr and parse are easy to get wrong
    sol.mass[:6] = [0.0, -0.0, 5e-324, 1.2345678901234567e300, 0.1, 1 / 3]
    jpath = sol.save(tmp_path / "bubble.json")
    assert (tmp_path / "bubble.csv").read_bytes() == _csv_writer_bytes(sol)
    back = NormalizedSolution.load(jpath)
    for name in ("psi", "dpsi", "mass"):
        assert np.array_equal(getattr(back, name), getattr(sol, name))
    assert np.array_equal(back.r, sol.r)
    assert np.signbit(back.mass[1])


def test_load_rejects_bad_header_and_empty_profile(tmp_path):
    sol = conformal_bubble(1.0, 2.0, make_grid(20.0, 64))
    jpath = sol.save(tmp_path / "bubble.json")
    cpath = tmp_path / "bubble.csv"
    cpath.write_text("r,psi,dpsi,mass\n1,2,3,4\n")
    with pytest.raises(ValueError, match="expected CSV header"):
        NormalizedSolution.load(jpath)
    cpath.write_text("r,psi,r_dpsi,mass\r\n\r\n")
    with pytest.raises(ValueError, match="no rows"):
        NormalizedSolution.load(jpath)


def test_resave_writes_the_loaded_residuals(tmp_path):
    # regression: save recomputed mass and flux errors from the columns and
    # let the loaded summary override them, so a halved mass column was
    # re-saved with the old mass_error of 6.2e-4.  The residuals are the
    # producer's; verify.check_identities recomputes them from the data
    sol = conformal_bubble(1.0, 2.0, make_grid(20.0, 256))
    back = NormalizedSolution.load(sol.save(tmp_path / "bubble.json"))
    back.mass *= 0.5
    jpath = back.save(tmp_path / "halved.json")
    summary = json.loads(jpath.read_text())["residual_summary"]
    assert summary == back.residuals
    assert "mass_error" not in summary


@pytest.mark.parametrize("key, value", [("r_max", 7.0), ("n_nodes", 3)])
def test_load_rejects_a_header_that_disagrees_with_its_csv(tmp_path, key,
                                                           value):
    # regression: the JSON's r_max and n_nodes were ignored, so a header
    # edited to r_max 7 and n_nodes 3 loaded as r_max 20 with 64 nodes
    jpath = conformal_bubble(1.0, 2.0, make_grid(20.0, 64)).save(
        tmp_path / "bubble.json")
    header = json.loads(jpath.read_text())
    header[key] = value
    jpath.write_text(json.dumps(header))
    with pytest.raises(ValueError, match=key):
        NormalizedSolution.load(jpath)
