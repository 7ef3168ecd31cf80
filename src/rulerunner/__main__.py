"""`python -m rulerunner`: the command-line tool, without an install."""

from .cli import entry

if __name__ == "__main__":
    entry()
