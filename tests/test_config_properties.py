"""Property-based check of the config round trip: over configs whose free
text (model names, ``anchor_model``, ``data``, ``directory`` and ``e0``)
is drawn from an alphabet of the INI format's own characters,
``save_config`` either refuses the config with ValidationError naming
the text, and writes no file, or writes one that ``load_config`` reads
back equal."""

import os
import tempfile
from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from mmrclimate.config import load_config, save_config  # noqa: E402
from mmrclimate.economy import ClimateModel  # noqa: E402
from mmrclimate.errors import ValidationError  # noqa: E402

# deterministic draws, so the suite is reproducible and writes no example
# database into the checkout
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)

BUNDLED = load_config()
TEXT = st.text(alphabet="aB0.#=;[]% \t\n\r", max_size=8)
# the free text of a config: each model's name, by its place in the
# ensemble, and four fields
FIELDS = [*range(len(BUNDLED.ensemble)), "anchor_model", "data_file", "output_dir",
          "e0_setting"]


@PROPERTY
@given(changes=st.dictionaries(st.sampled_from(FIELDS), TEXT, min_size=1, max_size=3))
@example(changes={5: "#MIROC"})
@example(changes={5: "MI=ROC"})
@example(changes={"output_dir": "out #1"})
@example(changes={"data_file": "my #data.csv"})
@example(changes={"e0_setting": "500 #x"})
@example(changes={"output_dir": " out"})
@example(changes={"output_dir": "out\ud800"})   # not UTF-8
def test_saved_config_reads_back_equal_or_is_refused(changes):
    names = [changes.get(i, m.name) for i, m in enumerate(BUNDLED.ensemble)]
    # RunConfig refuses two model names the same ignoring case
    hypothesis.assume(len({name.lower() for name in names}) == len(names))
    config = replace(
        BUNDLED,
        ensemble=tuple(ClimateModel(name, m.ccr) for name, m in zip(names, BUNDLED.ensemble)),
        **{field: text for field, text in changes.items() if isinstance(field, str)})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "saved.ini")
        try:
            save_config(config, path)
        except ValidationError as exc:
            assert any(repr(text) in str(exc) for text in changes.values()), exc
            assert not os.path.exists(path)
            return
        assert load_config(path) == config
