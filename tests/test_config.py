import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perturblab import (
    ExperimentConfig,
    ValidationError,
    default_b_exponent,
    load_config,
    save_config,
)
from perturblab.config import config_from_text, config_to_text


def test_defaults():
    cfg = ExperimentConfig(kind="tail")
    assert cfg.sizes == (50,)
    assert cfg.trials == 200
    assert cfg.noise == "bernoulli"
    assert cfg.precision == "single"
    assert cfg.threads == 1


def test_default_b_exponent_formula():
    assert default_b_exponent(1.0, 1.0) == 25.0  # 6 (1 + 1 + 2) + 1
    assert default_b_exponent(0.0, 0.0) == 13.0


def test_kind_must_be_known():
    with pytest.raises(ValidationError):
        ExperimentConfig(kind="mystery")


def test_exponent_ranges_enforced():
    with pytest.raises(ValidationError):
        ExperimentConfig(kind="tail", c_exponent=-1.0)


def test_misc_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig(kind="tail", trials=0)
    with pytest.raises(ValidationError):
        ExperimentConfig(kind="tail", sizes=())
    with pytest.raises(ValidationError):
        ExperimentConfig(kind="tail", precision="half")
    with pytest.raises(ValidationError):
        ExperimentConfig(kind="tail", b_grid=())
    with pytest.raises(ValidationError):
        ExperimentConfig(kind="tail", grid_points=1)


@pytest.mark.parametrize(
    "field, value",
    [("sizes", (5.7,)), ("trials", 20.5), ("seed", 7.9), ("threads", 2.0), ("grid_points", 3.5)],
)
def test_integer_fields_refuse_non_integers(field, value):
    with pytest.raises(ValidationError, match=f"^{field} takes integers only"):
        ExperimentConfig(kind="tail", **{field: value})
    with pytest.raises(ValidationError, match=f"^{field} takes integers only"):
        ExperimentConfig(kind="tail", **{field: (np.float64(3.0),) if field == "sizes" else "3"})
    whole = (np.int64(3),) if field == "sizes" else np.int64(3)  # numpy ints stay accepted
    stored = getattr(ExperimentConfig(kind="tail", **{field: whole}), field)
    assert stored == ((3,) if field == "sizes" else 3)
    assert all(type(x) is int for x in (stored if field == "sizes" else (stored,)))


def test_round_trip_defaults():
    cfg = ExperimentConfig(kind="cond-tail")
    assert config_from_text(config_to_text(cfg)) == cfg


def test_round_trip_custom():
    cfg = ExperimentConfig(
        kind="frozen",
        sizes=(10, 20, 40),
        trials=77,
        seed=321,
        noise="lazy_coin:1/2",
        matrix="graded_diagonal",
        b_grid=(0.5, 1.25),
        c_exponent=2.5,
        mask="random:3",
        precision="double",
        compare_gaussian=True,
        target_exceedance=0.05,
        grid_points=7,
        out="results/run1",
        threads=8,
    )
    assert config_from_text(config_to_text(cfg)) == cfg


def test_round_trip_float_precision():
    # repr-formatted floats survive the trip bit for bit
    cfg = ExperimentConfig(kind="tail", c_exponent=0.1 + 0.2)
    back = config_from_text(config_to_text(cfg))
    assert back.c_exponent == cfg.c_exponent


def test_kind_mismatch_rejected():
    text = config_to_text(ExperimentConfig(kind="tail"))
    with pytest.raises(ValidationError):
        config_from_text(text, kind="minors")


def test_unknown_key_rejected():
    text = "[tail]\nbogus = 1\n"
    with pytest.raises(ValidationError):
        config_from_text(text)


def test_two_sections_rejected():
    text = "[tail]\ntrials = 5\n[minors]\ntrials = 5\n"
    with pytest.raises(ValidationError):
        config_from_text(text)


def test_file_round_trip(tmp_path):
    cfg = ExperimentConfig(kind="ge-check", trials=10, precision="double")
    path = tmp_path / "cfg.ini"
    save_config(str(path), cfg)
    assert load_config(str(path)) == cfg
    assert load_config(str(path), kind="ge-check") == cfg


@given(
    trials=st.integers(min_value=1, max_value=10**6),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    c=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    sizes=st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=4),
    threads=st.integers(min_value=1, max_value=64),
    compare=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_round_trip_property(trials, seed, c, sizes, threads, compare):
    cfg = ExperimentConfig(
        kind="cond-tail",
        trials=trials,
        seed=seed,
        c_exponent=c,
        sizes=tuple(sizes),
        threads=threads,
        compare_gaussian=compare,
    )
    assert config_from_text(config_to_text(cfg)) == cfg


def test_config_is_frozen():
    cfg = ExperimentConfig(kind="tail")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.trials = 5


def test_file_round_trip_keeps_punctuation_literal(tmp_path):
    # '%', ';', ':' and '=' carry no meaning inside a value
    cfg = ExperimentConfig(kind="tail", out="runs/50%;a:b=c", noise="lazy_coin:1/2")
    path = tmp_path / "cfg.ini"
    save_config(str(path), cfg)
    assert load_config(str(path)) == cfg


@pytest.mark.parametrize("out", ["a#b", " a", "a ", "a  b", "a\nb", "a\tb"])
def test_save_refuses_a_value_that_would_not_read_back(tmp_path, out):
    path = tmp_path / "cfg.ini"
    with pytest.raises(ValidationError, match="would not read back"):
        save_config(str(path), ExperimentConfig(kind="tail", out=out))
    assert not path.exists()


def test_inline_comment_ends_a_value():
    cfg = config_from_text("[tail]  # the gaussian baseline\ntrials = 100  # note\n\nnoise = gaussian\n")
    assert cfg == ExperimentConfig(kind="tail", trials=100, noise="gaussian")


@pytest.mark.parametrize("text, lineno", [
    ("[tail]\nkind = tail\n", 2),
    ("[tail]\n[Tail]\n", 2),
    ("[tail]\n[tail]\n", 2),
    ("[tail]\ntrials: 5\n", 2),
    ("[tail]\n; a comment\n", 2),
    ("[tail]\nnoise =\n  gaussian\n", 3),
])
def test_refused_lines_are_named(text, lineno):
    with pytest.raises(ValidationError, match=f"^line {lineno}: "):
        config_from_text(text)
