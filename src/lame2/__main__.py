"""`python -m lame2`: the lame2 command line."""
from .cli import entry
entry()
