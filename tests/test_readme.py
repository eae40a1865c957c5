"""The README's commands and flags against the CLI's parser, so the usage
text cannot name a subcommand or flag that the executable no longer has."""

import argparse
import re
import shlex
from pathlib import Path

from hapstack.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def readme_commands() -> list[list[str]]:
    """The argv of every ``hapstack`` command in the README's ``sh`` blocks,
    continuation lines joined and pipelines split."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            while words:
                segment = words[:words.index("|")] if "|" in words else words
                if segment[:1] == ["hapstack"]:
                    commands.append(segment[1:])
                words = words[len(segment) + 1:]
    return commands


def test_every_readme_command_parses():
    commands = readme_commands()
    assert {argv[0] for argv in commands} >= {"init-random", "score", "filter", "heatmap",
                                              "rescore", "sample", "bench"}
    parser = build_parser()
    for argv in commands:
        _, unknown = parser.parse_known_args(argv)
        assert unknown == [], argv


def test_every_readme_flag_is_accepted():
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    accepted = {flag for sub in subparsers.choices.values() for flag in sub._option_string_actions}
    named = set(re.findall(r"`(--[a-z][a-z-]*)", README))
    assert named and named <= accepted, sorted(named - accepted)
