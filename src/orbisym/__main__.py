"""``python -m orbisym``: the orbisym command line."""

from .cli import entry

if __name__ == "__main__":
    entry()
