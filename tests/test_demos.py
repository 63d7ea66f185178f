"""The demo scripts, run in process, print exactly their pinned output.

A change that alters what a demo prints must re-pin its digest here and
say why in CHANGES.md, as for the CLI goldens in test_cli."""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

PINNED = {
    "01_expansivity_two_metrics.py":
        "0afd94ad806a8c193a296a66554a5658706713222e1bb4571f05b0981af66d99",
    "02_shadowing_pseudo_orbits.py":
        "c78796e7887248da4aedaf0353b5beeb479f97d74e422c42a99c16ada6e3fc51",
    "03_spectral_decomposition.py":
        "e6335536991b6836e77ca27a0704db194c2e05b8a27d02ae96c19c3feb2f465b",
    "04_recurrence_without_metrics.py":
        "c8a36014a17b501f6a33fa8b62c187dc20f85be7ba73d17e65e192f833b49aca",
    "05_stability_under_perturbation.py":
        "0eab57b99dcf242edfa5ee4a4cdad8b97fbd6f2dd5e83f0b159410e27d503be3",
}


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_stdout_is_pinned(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINNED.get(name)
