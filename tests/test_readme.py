'''The README's command-line examples and library tour run as shown.'''

import json
import re
import shlex
from pathlib import Path

import pytest

from ducci.cli import main

README = (Path(__file__).resolve().parents[1] / 'README.md').read_text(
  encoding='utf-8')


def blocks(lang):
  return re.findall(rf'^```{lang}\n(.*?)^```$', README, re.M | re.S)


EXAMPLES = [line for block in blocks('sh') for line in block.splitlines()
            if line.startswith('ducci ')]


def pinned(line):
  # A comment that is a JSON literal is the example's exact stdout; any
  # other comment describes it, and pins nothing.
  comment = line.partition('#')[2].strip()
  try:
    json.loads(comment)
  except ValueError:
    return None
  return comment + '\n'


def test_examples_are_found():
  assert len(EXAMPLES) == 14
  assert sum(pinned(line) is not None for line in EXAMPLES) == 3


@pytest.mark.parametrize('line', EXAMPLES)
def test_cli_example(capsys, line):
  assert main(shlex.split(line.partition('#')[0])[1:]) == 0
  want = pinned(line)
  if want is not None:
    assert capsys.readouterr().out == want


def test_library_tour():
  tour, = blocks('python')
  exec(compile(tour, 'README.md', 'exec'), {})
