"""The README's library quick tour, run as written, and its command and
config blocks checked against the parser and the config keys."""

import argparse
import re
from pathlib import Path

import pytest

from smframe import cli, config

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang):
    return [b.split("```", 1)[0] for b in README.read_text().split(f"```{lang}\n")[1:]]


def test_readme_quick_tour_runs():
    block, = _blocks("python")
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    states = namespace["states"]
    assert len(states) == 11
    assert states[-1].time == pytest.approx(10 * 5e-5)


def test_readme_names_exactly_the_subcommands():
    block, = (b for b in _blocks("sh") if b.startswith("smframe "))
    named = {line.split()[1] for line in block.splitlines()}
    sub, = (a for a in cli._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    assert named == set(sub.choices)


def test_readme_config_block_names_every_key():
    block, = _blocks("ini")
    sections = dict(re.findall(r"^\[(\w+)\][^\n]*\n(.*?)(?=^\[|\Z)", block, re.M | re.S))
    assert set(sections) == set(config._KEYS)
    for name, keys in config._KEYS.items():
        for key in keys:
            assert re.search(rf"\b{key} =", sections[name]), f"{name}.{key}"
