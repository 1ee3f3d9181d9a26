"""The command-line flags that override a config key."""

import argparse

from memtrack import cli


def key_flags() -> list[tuple[str, str, str]]:
    """(command, flag, dest) of every flag whose argparse dest is a dotted key."""
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0], action.dest)
            for command, sub in commands.choices.items() for action in sub._actions
            if "." in action.dest]
