"""README names every CLI option and config key, no `seqot` flag the parser
lacks, and exactly the keys that apply only under another setting, so a
removed flag or key cannot linger in the docs."""

import argparse
import re
from pathlib import Path

import pytest

from seqot import configfile
from seqot.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
FLAG = re.compile(r"--[A-Za-z][\w-]*")


def subcommand_options() -> dict[str, set[str]]:
    parser = build_parser()
    (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return {
        name: {option for action in command._actions for option in action.option_strings
               if option.startswith("--") and option != "--help"}
        for name, command in sub.choices.items()
    }


def readme_commands() -> list[str]:
    """Each ``seqot`` command line of README's code blocks, its continued
    lines joined."""
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", README, re.MULTILINE | re.DOTALL):
        for line in re.sub(r"\\\n\s*", " ", block).splitlines():
            if line.startswith("seqot "):
                commands.append(line)
    return commands


def readme_inline_code() -> list[str]:
    prose = re.sub(r"^```.*?^```", "", README, flags=re.MULTILINE | re.DOTALL)
    return re.findall(r"`([^`\n]+)`", prose)


def named(flag: str) -> bool:
    return re.search(re.escape(flag) + r"(?![\w-])", README) is not None


@pytest.mark.parametrize("command, option", [
    (command, option) for command, options in subcommand_options().items() for option in sorted(options)
])
def test_every_subcommand_option_is_named(command, option):
    assert named(option), f"README does not name {command} {option}"


@pytest.mark.parametrize("key", sorted(configfile._KEYS))
def test_every_config_key_is_named(key):
    assert re.search(rf"`{key}(`| =)", README), f"README does not name config key {key!r}"


def test_every_readme_flag_exists():
    options = subcommand_options()
    every = set().union(*options.values())
    commands = readme_commands()
    assert commands, "README shows no seqot command"
    for line in commands:
        command = line.split()[1]
        for flag in FLAG.findall(line):
            assert flag in options[command], f"README gives {flag} for seqot {command}, which has no such option"
    for code in readme_inline_code():
        for flag in FLAG.findall(code):
            assert flag in every, f"README names {flag}, which no seqot command has"


def test_applies_only_table_is_the_rule_table():
    header = "| key | applies only under |\n| --- | --- |\n"
    assert header in README, "README has no 'applies only under' table"
    rows = README.split(header, 1)[1].split("\n\n", 1)[0].splitlines()
    documented = dict(re.fullmatch(r"\| `(\w+)` \| `(\w+ = \w+)` \|", row).groups() for row in rows)
    assert documented == {key: f"{setting} = {configfile._show(value)}"
                          for key, (setting, value) in configfile._APPLIES_ONLY.items()}
