"""The API that README.md documents must exist.

Reads README.md only and starts no simulation: every name a fenced
``python`` block imports from ``alqr`` has to resolve, every module in the
Layout table has to import, and every ``alqr`` command in a fenced ``sh``
block has to parse, so pruning an export or a flag cannot silently break
the documented examples.
"""

import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

from alqr import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def documented_imports():
    names = []
    for block in python_blocks():
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "alqr":
                names.extend(alias.name for alias in node.names)
    return names


def cli_examples():
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words[:1] == ["alqr"]:
                examples.append(words[1:])
    return examples


def layout_modules():
    return re.findall(r"^\| `(alqr\.\w+)` \|", README, re.M)


def test_readme_documents_an_api():
    assert python_blocks()
    assert documented_imports()
    assert len(layout_modules()) >= 10
    assert cli_examples()


@pytest.mark.parametrize("name", documented_imports())
def test_quick_start_import_resolves(name):
    assert hasattr(importlib.import_module("alqr"), name), name


@pytest.mark.parametrize("module", layout_modules())
def test_layout_module_imports(module):
    importlib.import_module(module)


@pytest.mark.parametrize("argv", cli_examples(), ids=" ".join)
def test_cli_example_parses(argv):
    # argparse exits with status 2 on an unknown or malformed flag
    cli.build_parser().parse_args(argv)
