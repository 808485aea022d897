import json
import math

import pytest

from perturblab import (
    ExperimentRecord,
    format_records_csv,
    format_summary_json,
    run_trials,
    write_records_csv,
)
from perturblab.records import CSV_HEADER, CSV_SCHEMA_LINE, json_safe_float


def _rec(trial=0, n=4, s_max=2.0, s_min=1.0, **kw):
    return ExperimentRecord(
        trial=trial,
        seed=kw.pop("seed", 42),
        n=n,
        sigma_max=s_max,
        sigma_min=s_min,
        singular=kw.pop("singular", False),
        tail_hit=kw.pop("tail_hit", False),
        **kw,
    )


def test_record_allows_inf_kappa():
    r = _rec(s_min=0.0, singular=True)
    assert r.kappa == math.inf


@pytest.mark.parametrize(
    "s_min, singular, kappa",
    [
        (0.0, True, math.inf),  # singular
        (0.5, True, math.inf),  # an exact verdict at sigma_min > 0
        (0.0, False, math.inf),  # sigma_min = 0
        (0.5, False, 3.0 / 0.5),  # the ratio, as SingularSpectrum.kappa divides it
    ],
)
def test_record_kappa_follows_singular_and_sigma(s_min, singular, kappa):
    r = _rec(s_max=3.0, s_min=s_min, singular=singular)
    assert r.kappa == kappa
    with pytest.raises(TypeError):  # kappa is derived: a record cannot store another
        ExperimentRecord(0, 42, 4, 3.0, s_min, singular, False, kappa=kappa)


def test_csv_layout():
    text = format_records_csv([_rec(trial=1), _rec(trial=0)])
    lines = text.strip().split("\n")
    assert lines[0] == CSV_SCHEMA_LINE
    assert lines[1] == CSV_HEADER
    # sorted by trial within n
    assert lines[2].startswith("0,")
    assert lines[3].startswith("1,")


def test_csv_sorts_by_size_then_trial():
    text = format_records_csv([_rec(trial=0, n=8), _rec(trial=3, n=4)])
    rows = text.strip().split("\n")[2:]
    assert rows[0].split(",")[2] == "4"
    assert rows[1].split(",")[2] == "8"


def test_csv_floats_use_repr_and_inf():
    r = _rec(s_max=1.0, s_min=0.0, singular=True)
    text = format_records_csv([r])
    row = text.strip().split("\n")[-1]
    assert ",inf," in row
    assert row.endswith("1,0")  # singular, tail_hit as ints


def test_csv_write(tmp_path):
    path = tmp_path / "r.csv"
    write_records_csv(str(path), [_rec()])
    body = path.read_text()
    assert body.startswith(CSV_SCHEMA_LINE)
    assert body.endswith("\n")


def test_summary_json_sorted_and_safe():
    text = format_summary_json({"b": 1, "a": json_safe_float(math.inf)})
    assert text.index('"a"') < text.index('"b"')
    parsed = json.loads(text)
    assert parsed["a"] == "inf"


def test_summary_json_rejects_raw_nan():
    with pytest.raises(ValueError):
        format_summary_json({"x": float("nan")})


def test_summary_json_writes_nested_infinities_as_strings():
    text = format_summary_json(
        {"d": {"k": math.inf}, "l": [1.5, -math.inf], "t": (math.inf, 0.1, 2), "x": 1e300}
    )
    assert json.loads(text) == {
        "d": {"k": "inf"}, "l": [1.5, "-inf"], "t": ["inf", 0.1, 2], "x": 1e300,
    }


def test_json_safe_float_passthrough():
    assert json_safe_float(1.5) == 1.5
    assert json_safe_float(math.inf) == "inf"
    assert json_safe_float(-math.inf) == "-inf"


def test_run_trials_sequential_matches_threaded():
    def work(i):
        return i * i

    seq = run_trials(work, 50, threads=1)
    par = run_trials(work, 50, threads=8)
    assert seq == par == [i * i for i in range(50)]


def test_run_trials_preserves_order_under_contention():
    import time

    def work(i):
        # earlier trials sleep longer: completion order is reversed
        time.sleep((5 - i) * 0.002)
        return i

    assert run_trials(work, 5, threads=4) == list(range(5))


def test_run_trials_runs_a_single_task_inline(monkeypatch):
    import concurrent.futures

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a single task started a pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", NoPool)
    assert run_trials(lambda i: i + 7, 1, 8) == [7]
    assert run_trials(lambda i: i, 0, 8) == []
    with pytest.raises(AssertionError, match="started a pool"):
        run_trials(lambda i: i, 2, 2)
