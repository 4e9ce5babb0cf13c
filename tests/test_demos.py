'''The narrated walkthroughs under demos/, which the README advertises.'''

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / 'demos').glob('*.py'))


def test_every_demo_is_found():
  assert [path.name for path in DEMOS] == [
    'coefficient_playground.py', 'length_formula_sweep.py', 'orbit_tour.py']


@pytest.mark.parametrize('path', DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path):
  # Each demo runs as the README shows, in its own interpreter, against
  # the package in src/.
  env = {**os.environ, 'PYTHONPATH': str(ROOT / 'src')}
  done = subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                        capture_output=True, text=True, timeout=120)
  assert done.returncode == 0, done.stderr
  assert done.stdout.strip()
