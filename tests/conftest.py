import tempfile
from pathlib import Path

from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis caches the constants it finds in local source files under its
# home directory, ./.hypothesis by default, already while pytest collects.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "deepmatch-hypothesis")
