"""Property-based check of the command line over bad config values: one
key of the bundled config set to a value from a small hostile set, then
one subcommand run in process.  Every run ends in a documented exit code
(0 success, 2 usage or config error, 3 numerical failure) with at most
one ``error:`` line, never in a traceback or a stray warning, and no
file it writes holds a ``nan`` or ``inf``."""

import configparser
import io
import os
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from mmrclimate.cli import main  # noqa: E402
from mmrclimate.config import bundled_data_path  # noqa: E402

# deterministic draws, so the suite is reproducible and writes no example
# database into the checkout
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)

DEFAULT_TEXT = Path(bundled_data_path("default_config.ini")).read_text()
_parser = configparser.ConfigParser(delimiters=("=",))
_parser.optionxform = str
_parser.read_string(DEFAULT_TEXT)
# every key but the output directory, which may have any name (``nan``
# included) and which --output-dir overrides here
KEYS = [key for section in _parser.sections() for key in _parser[section]
        if key != "directory"]

VALUES = ["0", "-1", "nan", "inf", "-inf", "1e300", "1e-300", "text", "", "50%",
          "%(beta)s"]
COMMANDS = [["fit-baseline"], ["tmax", "--no-abatement"], ["mmr"], ["sweep"],
            ["solve", "--delta", "0.02", "--model", "IPSL"]]
NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


@PROPERTY
@given(key=st.sampled_from(KEYS), value=st.sampled_from(VALUES),
       command=st.sampled_from(COMMANDS))
@example(key="alpha_grid", value="nan", command=["fit-baseline"])
@example(key="beta_grid", value="-1", command=["fit-baseline"])
@example(key="root_tol", value="nan", command=["fit-baseline"])
@example(key="GFDL", value="1e300", command=["mmr"])
@example(key="start_year", value="-1", command=["fit-baseline"])
@example(key="data", value="50%", command=["fit-baseline"])
def test_bad_config_value_ends_in_documented_exit(key, value, command):
    text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", DEFAULT_TEXT,
                          count=1, flags=re.M)
    assert count == 1
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "edited.ini")
        with open(config, "w") as fh:
            fh.write(text)
        outdir = os.path.join(tmp, "out")
        err = io.StringIO()
        # a stray RuntimeWarning is a traceback under -W error, so it is one here
        with warnings.catch_warnings(), redirect_stdout(io.StringIO()), \
                redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["--config", config, "--output-dir", outdir, *command])
        err = err.getvalue()
        assert code in (0, 2, 3), (code, err)
        assert err == "" if code == 0 else (
            err.startswith("error: ") and err.count("\n") == 1), err
        for name in os.listdir(outdir) if os.path.isdir(outdir) else []:
            with open(os.path.join(outdir, name)) as fh:
                assert not NON_FINITE.search(fh.read()), name
