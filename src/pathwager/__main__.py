"""Run the command-line interface with ``python -m pathwager``."""
from .cli import main

main()
