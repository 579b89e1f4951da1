"""Each script in demos/ runs to the end and prints its headline line.

The demos run in-process, as `python demos/<name>.py` would run them,
from an empty working directory (the plotting demos write
demo_output/ there when matplotlib is installed).
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# first line each demo prints
HEADLINES = {
    "01_single_particle_interferometers.py": "phase    MZ p(a)   Ramsey p(down)   Fisher(MZ)",
    "02_sql_vs_heisenberg.py": "   N    CSS Ramsey dphi   1/sqrt(N)     GHZ qcrb      1/N",
    "03_twin_fock_parity.py": "N =  2: qfi =    12.000 (= 2N(1+N) = 12),  "
    "parity dphi near 0 = 0.28868 (quantum bound 0.28868)",
    "04_spin_squeezing.py": "chi*t    xi_S^2     xi_R^2",
    "05_bose_josephson_ground_states.py": "N = 20; sweeping the charging energy at fixed tunneling J = 1",
    "06_mle_monte_carlo.py": "Bernoulli family at theta = 0.5: Fisher information = 4.0",
}


def test_every_demo_has_a_headline():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(HEADLINES)


@pytest.mark.parametrize("name", sorted(HEADLINES))
def test_demo_runs_and_prints_its_headline(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == HEADLINES[name]
    if name == "06_mle_monte_carlo.py":
        assert lines[-1] == "  estimates identical: True"
